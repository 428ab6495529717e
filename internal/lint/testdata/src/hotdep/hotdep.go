// Package hotdep is the dependency half of the cross-package hotpath
// case: hotx calls into it, and the proof (or its absence) made while
// analyzing this package must reach hotx through the fact table.
package hotdep

import "fmt"

// Clean is allocation-free, including its callee.
func Clean(x int) int { return twice(x) + 1 }

func twice(x int) int { return 2 * x }

// Dirty allocates one call down, and is not a hot root here, so this
// package reports nothing about it.
func Dirty(x int) int { return len(render(x)) }

func render(x int) string { return fmt.Sprint(x) }
