// Package cutgrid counts rules per child of a multi-dimensional cut, the
// inner loop of the HyperCuts cut search that both the software baseline
// (internal/hypercuts) and the modified builder (internal/core) run.
//
// A cut with sizes d_0..d_{k-1} has d_0·…·d_{k-1} children, laid out
// row-major (the last axis is contiguous). Each rule covers a box of
// children, one inclusive span per axis. AddBox records the box as
// inclusion–exclusion corner updates on a difference grid, and Max turns
// the grid into per-child populations with one prefix sum per axis, so a
// rule costs 2^k updates however many children it covers.
package cutgrid

import "repro/internal/rule"

// Grid is a reusable difference grid over the children of one cut.
type Grid struct {
	// Cells holds one counter per child; AddBox writes differences and
	// Max leaves the populations behind.
	Cells []int32

	k              int
	sizes, strides [rule.NumDims]int
}

// Reset sizes the grid for a cut with the given per-axis child counts
// (at most rule.NumDims axes) and zeroes every cell, reusing Cells'
// storage when it is large enough.
func (g *Grid) Reset(sizes []int) {
	g.k = len(sizes)
	n := 1
	for i := g.k - 1; i >= 0; i-- {
		g.sizes[i] = sizes[i]
		g.strides[i] = n
		n *= sizes[i]
	}
	if cap(g.Cells) < n {
		g.Cells = make([]int32, n)
	}
	g.Cells = g.Cells[:n]
	clear(g.Cells)
}

// AddSpan adds one rule covering children lo..hi of a one-axis grid.
func (g *Grid) AddSpan(lo, hi int) {
	g.Cells[lo]++
	if hi+1 < g.sizes[0] {
		g.Cells[hi+1]--
	}
}

// AddBox adds one rule covering children spans[i][0]..spans[i][1] along
// each axis i. The one- and two-axis cases, which most cuts are, are
// unrolled; the general case walks the 2^k corners.
func (g *Grid) AddBox(spans [][2]int) {
	c := g.Cells
	switch g.k {
	case 1:
		g.AddSpan(spans[0][0], spans[0][1])
	case 2:
		s0 := g.strides[0]
		lo0, lo1 := spans[0][0]*s0, spans[1][0]
		hi1 := spans[1][1] + 1
		in1 := hi1 < g.sizes[1]
		c[lo0+lo1]++
		if in1 {
			c[lo0+hi1]--
		}
		if hi := spans[0][1] + 1; hi < g.sizes[0] {
			hi0 := hi * s0
			c[hi0+lo1]--
			if in1 {
				c[hi0+hi1]++
			}
		}
	default:
		for corner := 0; corner < 1<<uint(g.k); corner++ {
			idx := 0
			sign := int32(1)
			valid := true
			for i := 0; i < g.k; i++ {
				if corner&(1<<uint(i)) == 0 {
					idx += spans[i][0] * g.strides[i]
				} else {
					hi := spans[i][1] + 1
					if hi >= g.sizes[i] {
						valid = false
						break
					}
					idx += hi * g.strides[i]
					sign = -sign
				}
			}
			if valid {
				c[idx] += sign
			}
		}
	}
}

// Max prefix-sums the grid along every axis, which turns it into the
// population of each child, and returns the largest. Along axis a the
// grid is a run of blocks of sizes[a]·strides[a] cells, and a cell adds
// the one strides[a] before it within its block, so no cell index is
// divided back into coordinates.
func (g *Grid) Max() int {
	c := g.Cells
	for a := 0; a < g.k; a++ {
		s := g.strides[a]
		block := s * g.sizes[a]
		for base := 0; base < len(c); base += block {
			line := c[base : base+block]
			for j := s; j < block; j++ {
				line[j] += line[j-s]
			}
		}
	}
	m := int32(0)
	for _, v := range c {
		if v > m {
			m = v
		}
	}
	return int(m)
}
