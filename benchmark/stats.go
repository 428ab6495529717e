package main

import (
	"slices"
	"time"
)

// sample is the set of repeated readings behind one reported number.
type sample []float64

func (s sample) sorted() sample { return slices.Sorted(slices.Values(s)) }

func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func (s sample) min() float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Min(s)
}

// quantile is the p-quantile by the exclusive method of Python's
// statistics.quantiles, the rule the acceptance spread is computed with.
func (s sample) quantile(p float64) float64 {
	c := s.sorted()
	n := len(c)
	switch n {
	case 0:
		return 0
	case 1:
		return c[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return c[j-1] + (pos-float64(j))*(c[j]-c[j-1])
}

// timed repeats pass until box is spent and at least minPasses readings
// exist, and returns the seconds each pass took.
func timed(box time.Duration, minPasses int, pass func()) sample {
	var s sample
	start := time.Now()
	for len(s) < minPasses || time.Since(start) < box {
		t0 := time.Now()
		pass()
		s = append(s, time.Since(t0).Seconds())
	}
	return s
}

// mpps turns seconds per pass of n packets into millions of packets per
// second.
func (s sample) mpps(n int) sample {
	return s.scaled(func(sec float64) float64 { return float64(n) / sec / 1e6 })
}

// scaled maps every reading through f (for instance seconds per pass to
// packets per second).
func (s sample) scaled(f func(float64) float64) sample {
	out := make(sample, len(s))
	for i, v := range s {
		out[i] = f(v)
	}
	return out
}
