// Package retrysafe is the retrysafe analyzer fixture: CDW Exec calls may
// not sit lexically inside a retrier.Do closure.
package retrysafe

import (
	"context"

	"etlvirt/internal/cdwnet"
	"etlvirt/internal/obs"
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

// violating: the traced and range forms send DML just as Exec does.
func retryTracedExec(ctx context.Context, r *retrier.Retrier, p *cdwnet.Pool, tc obs.TraceContext) error {
	return r.Do(ctx, "dml", func() error {
		if _, err := p.ExecT("UPDATE t SET x = x + 1", tc); err != nil { // want "Pool.ExecT inside a retrier.Do closure"
			return err
		}
		_, err := p.ExecRangeT("DELETE FROM t WHERE __seq BETWEEN :__lo AND :__hi", 1, 10, tc) // want "Pool.ExecRangeT inside a retrier.Do closure"
		return err
	})
}

// conforming: idempotent reads may retry freely.
func retryQuery(ctx context.Context, r *retrier.Retrier, p *cdwnet.Pool) error {
	return r.Do(ctx, "probe", func() error {
		_, _, err := p.QueryAll("SELECT 1")
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
