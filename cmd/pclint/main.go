// pclint is the repo's invariant checker: the internal/lint analyzer
// suite (hotpath, atomicfunc, reproallow)
// run over the packages its arguments name.
//
//	pclint ./...
//	pclint -tags=purego ./...
//	GOOS=linux GOARCH=arm64 pclint ./internal/engine/
//
// The arguments go to `go list` unchanged, so build flags and package
// patterns mean what they mean to the go command. Exit status is 1 if
// there are diagnostics and 2 if the packages could not be loaded.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	diags, err := lint.Check(".", lint.Analyzers(), os.Args[1:]...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pclint: %v\n", err)
		os.Exit(2)
	}
	wd, _ := os.Getwd() // on failure positions stay absolute
	for _, d := range diags {
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
