package main

import (
	"io"
	"testing"
)

// TestSmoke runs every workload at 1/64 size, timed twice and traced once, and
// holds the program to BENCHMARK.json: the same workload and metric names,
// units and directions, no failed operation, and exact metrics that repeat bit
// for bit.
func TestSmoke(t *testing.T) {
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, c.Workloads[i].Name, w.name)
		}
	}
	better := map[bool]string{false: "lower", true: "higher"}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the program has %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := c.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better[d.higherBetter] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := c.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better[d.higherBetter] {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, m, d)
		}
	}

	o := options{seed: 2008, seconds: 0.2, scale: 64, outDir: t.TempDir()}
	for _, w := range workloads {
		in, err := generate(w, o.seed, o.scale)
		if err != nil {
			t.Fatal(err)
		}
		first, err := runEndToEnd(in, o)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runEndToEnd(in, o)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(in, o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*result{first, second, traced} {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.name, r.Failed, r.Attempted, r.Failures)
			}
			if len(r.Readings) != len(r.defs) {
				t.Errorf("%s: %d readings for %d declared metrics", w.name, len(r.Readings), len(r.defs))
			}
		}
		for _, d := range endToEnd {
			a, _ := first.get(d.name)
			b, _ := second.get(d.name)
			if a.Value <= 0 {
				t.Errorf("%s: %s reads %v; end-to-end metrics are never 0", w.name, d.name, a.Value)
			}
			if d.exact && a.Value != b.Value {
				t.Errorf("%s: exact metric %s read %v then %v", w.name, d.name, a.Value, b.Value)
			}
		}
	}
}
