package main

import (
	"testing"

	"repro/internal/bench"
)

func TestRunSingleTables(t *testing.T) {
	opts := bench.Options{
		Seed:         7,
		Sizes:        []int{60, 150},
		Table4Sizes:  []int{300},
		TracePackets: 1000,
	}
	// Table 5 is constants-only; tables 2 and 4 exercise the builders.
	for _, table := range []int{5, 2, 4} {
		if err := run(table, false, false, 600, opts); err != nil {
			t.Fatalf("table %d: %v", table, err)
		}
	}
}

func TestRunAblationFlag(t *testing.T) {
	opts := bench.Options{Seed: 7, Sizes: []int{60}, TracePackets: 800}
	if err := run(5, true, false, 400, opts); err != nil {
		t.Fatal(err)
	}
}

func TestSizesOfDefaults(t *testing.T) {
	if got := sizesOf(bench.Options{}); len(got) != 6 || got[5] != 2191 {
		t.Errorf("default sizes = %v", got)
	}
	if got := sizesOf(bench.Options{Sizes: []int{5}}); len(got) != 1 {
		t.Errorf("override sizes = %v", got)
	}
}
