package cdwnet

import (
	"etlvirt/internal/cdw"
	"etlvirt/internal/sqlparse"
)

// templateCap bounds each connection's template cache. A job's range
// templates name its own staging table, so they stop hitting once the job
// ends; a small bound keeps a connection's memory flat however many jobs
// it serves.
const templateCap = 16

// template is one parsed range template: its statement and the two literal
// nodes its bind markers became. The slots stay literals, not values bound
// at evaluation, because range pruning (cdw/prune.go) reads literal bounds.
type template struct {
	text  string
	stmt  sqlparse.Stmt
	slots [2]*sqlparse.Literal
}

// templateCache maps template text to its parse for one server connection,
// most recently used first, holding at most templateCap entries. It holds
// syntax only: the engine resolves names at each Exec, so DDL cannot make
// an entry stale. One goroutine serves a connection, so it needs no lock.
type templateCache struct {
	entries []*template
}

// get returns the parse of text, parsing it on a miss. A template that does
// not parse is a syntax error, as SQL text that does not parse is.
func (tc *templateCache) get(text string) (*template, error) {
	for i, t := range tc.entries {
		if t.text == text {
			copy(tc.entries[1:i+1], tc.entries[:i])
			tc.entries[0] = t
			return t, nil
		}
	}
	stmt, slots, err := sqlparse.ParseTemplate(text)
	if err != nil {
		return nil, &cdw.Error{Code: cdw.CodeSyntax, Msg: err.Error()}
	}
	t := &template{text: text, stmt: stmt, slots: slots}
	if len(tc.entries) < templateCap {
		tc.entries = append(tc.entries, nil)
	}
	copy(tc.entries[1:], tc.entries)
	tc.entries[0] = t
	return t, nil
}
