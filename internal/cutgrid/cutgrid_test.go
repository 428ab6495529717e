package cutgrid

import (
	"math/rand"
	"testing"
)

// TestGridMatchesBruteForce adds random boxes to grids of one to five
// axes (so the unrolled and the corner-walking AddBox both run, on a
// reused grid) and checks every cell and Max against direct counting.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g Grid
	for iter := 0; iter < 500; iter++ {
		k := 1 + iter%5
		sizes := make([]int, k)
		n := 1
		for i := range sizes {
			sizes[i] = 1 << uint(rng.Intn(4))
			n *= sizes[i]
		}
		g.Reset(sizes)
		want := make([]int32, n)
		spans := make([][2]int, k)
		for r := rng.Intn(40); r >= 0; r-- {
			for i := range spans {
				lo := rng.Intn(sizes[i])
				spans[i] = [2]int{lo, lo + rng.Intn(sizes[i]-lo)}
			}
			g.AddBox(spans)
			for cell := range want {
				in, rest := true, cell
				for i := k - 1; i >= 0; i-- {
					c := rest % sizes[i]
					rest /= sizes[i]
					in = in && spans[i][0] <= c && c <= spans[i][1]
				}
				if in {
					want[cell]++
				}
			}
		}
		wantMax := int32(0)
		for _, v := range want {
			wantMax = max(wantMax, v)
		}
		if got := g.Max(); got != int(wantMax) {
			t.Fatalf("iter %d sizes %v: Max %d, want %d", iter, sizes, got, wantMax)
		}
		for cell, v := range want {
			if g.Cells[cell] != v {
				t.Fatalf("iter %d sizes %v: cell %d = %d, want %d", iter, sizes, cell, g.Cells[cell], v)
			}
		}
	}
}
