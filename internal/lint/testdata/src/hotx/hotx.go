// Package hotx is the importing half of the cross-package hotpath case.
package hotx

import "repro/internal/lint/testdata/src/hotdep"

//repro:hotpath
func Classify(x int) int {
	x = hotdep.Clean(x)
	return hotdep.Dirty(x) // want "cannot prove repro/internal/lint/testdata/src/hotdep.Dirty allocation-free"
}
