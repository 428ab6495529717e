// Package reproallow exercises the directive linter: suppressions must
// name a real analyzer and justify themselves; unknown directives are
// flagged as the typos they usually are.
//
// NOTE: this file is deliberately not gofmt'd — gofmt's doc-comment
// canonicalization would separate the // want-prev markers from the
// directive lines they annotate (want-prev matches the previous source
// line, because a //repro: directive must be alone on its line).
package reproallow

//repro:hotpath
func ok(x int) int { return x }

//repro:coldpath
// want-prev "requires a justification"
func missingWhy() {}

//repro:allow bogus -- justified but aimed at nothing real
// want-prev "unknown analyzer \"bogus\""
func badTarget() {}

//repro:frobnicate
// want-prev "unknown directive"
func badKind() {}

//repro:allow hotpath
// want-prev "requires a justification"
func unjustified() {}

//repro:coldpath error exit, fired once per stream
func justifiedColdpath() {}
