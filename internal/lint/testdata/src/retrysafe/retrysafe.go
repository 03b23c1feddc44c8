// Package retrysafe is the retrysafe analyzer fixture: CDW Exec calls may
// not sit lexically inside a retrier.Do closure.
package retrysafe

import (
	"context"

	"etlvirt/internal/cdwnet"
	"etlvirt/internal/retrier"
)

// violating: a blind retry loop around Exec can double-apply DML.
func retryExec(ctx context.Context, r *retrier.Retrier, p *cdwnet.Pool) error {
	return r.Do(ctx, "dml", func() error {
		_, err := p.Exec("UPDATE t SET x = x + 1") // want "Pool.Exec inside a retrier.Do closure"
		return err
	})
}

// violating: the single-connection client is just as unsafe.
func retryClientExec(ctx context.Context, r *retrier.Retrier, c *cdwnet.Client) error {
	return r.Do(ctx, "dml", func() error {
		_, err := c.Exec("DELETE FROM t") // want "Client.Exec inside a retrier.Do closure"
		return err
	})
}

// violating: Write sends DML just as Exec does, SQL text or range template.
func retryWrite(ctx context.Context, r *retrier.Retrier, p *cdwnet.Pool) error {
	return r.Do(ctx, "dml", func() error {
		_, err := p.Write(ctx, cdwnet.Range("DELETE FROM t WHERE __seq BETWEEN :__lo AND :__hi", 1, 10)) // want "Pool.Write inside a retrier.Do closure"
		return err
	})
}

// conforming: idempotent reads may retry freely.
func retryQuery(ctx context.Context, r *retrier.Retrier, p *cdwnet.Pool) error {
	return r.Do(ctx, "probe", func() error {
		_, _, err := p.Read(ctx, cdwnet.Stmt{SQL: "SELECT 1"})
		return err
	})
}

// conforming: Exec outside any retry closure relies on the pool's
// NotSent-only retry.
func plainExec(p *cdwnet.Pool) error {
	_, err := p.Exec("INSERT INTO t VALUES (1)")
	return err
}

// suppressed: the statement is a DDL drop that is idempotent by
// construction, so the blanket rule is deliberately waived here.
func retryIdempotentDrop(ctx context.Context, r *retrier.Retrier, p *cdwnet.Pool) error {
	return r.Do(ctx, "drop", func() error {
		_, err := p.Exec("DROP TABLE IF EXISTS t_stage") //nolint:retrysafe
		return err
	})
}
