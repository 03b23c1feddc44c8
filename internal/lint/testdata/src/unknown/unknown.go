// Package unknown is the fixture for the Runner's directive-name check: a
// //nolint name that no analyzer has, or an //etlvirt: verb that no analyzer
// reads, declares nothing, so each is a finding of its own.
package unknown

import "context"

// typo: the misspelt name silences nothing, so ctxbg still fires beside it.
func typo() context.Context {
	return context.Background() //nolint:ctxgb // want "context.Background\(\) escapes" want "//nolint:ctxgb names no analyzer"
}

// nosuch names no analyzer on the line above a clean statement.
func nosuch() int {
	//nolint:nosuch // want "//nolint:nosuch names no analyzer"
	return 1
}

// mixed: the known name still suppresses; only the unknown one is reported.
func mixed() context.Context {
	return context.Background() //nolint:ctxbg,nosuch // want "//nolint:nosuch names no analyzer"
}

// bare keeps its meaning: it silences every analyzer and names none.
func bare() context.Context {
	return context.Background() //nolint
}

// stale carries a verb that no analyzer reads.
//
//etlvirt:nosuch // want "//etlvirt:nosuch is read by no analyzer"
func stale() {}

// hotpath carries the verb of a deleted analyzer.
//
//etlvirt:hotpath // want "//etlvirt:hotpath is read by no analyzer"
func hotpath() {}

// read carries verbs that analyzers read; neither is a finding.
//
//etlvirt:transfers b
//etlvirt:sqlclean
func read(b []byte) string { return "" }
