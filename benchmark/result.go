package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric. BENCHMARK.json repeats the names, units and
// directions (smoke_test.go keeps the two in step) and alone holds the bounds.
type metricDef struct {
	name, unit   string
	higherBetter bool
	// exact marks a count that repeats bit for bit on the same inputs: two
	// runs of one commit that differ on it are a correctness failure, not
	// noise.
	exact bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ingest_wire_mpps", unit: "Mpkt/s", higherBetter: true},
	{name: "ingest_text_mpps", unit: "Mpkt/s", higherBetter: true},
	{name: "stream_rtt_p50_us", unit: "us"},
	{name: "engine_mem_bytes", unit: "B", exact: true},
	{name: "build_ms", unit: "ms"},
	{name: "restore_ms", unit: "ms"},
	{name: "image_bytes", unit: "B", exact: true},
	{name: "insert_p50_us", unit: "us"},
	{name: "delete_p50_us", unit: "us"},
	{name: "churn_classify_mpps", unit: "Mpkt/s", higherBetter: true},
	{name: "sim_cycles_pkt", unit: "cycles", exact: true},
	{name: "sim_energy_nj_pkt", unit: "nJ", exact: true},
	{name: "sim_memory_bytes", unit: "B", exact: true},
	{name: "sim_host_mpps", unit: "Mpkt/s", higherBetter: true},
}

// reading is one reported metric with the sample behind it.
type reading struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the number of timed repetitions Value is the median of; 1 for a
	// count read once.
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Q1  float64 `json:"q1"`
	Q3  float64 `json:"q3"`
}

// result is one workload run: either the timed end-to-end run or the traced
// per-layer run.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Readings  []reading `json:"readings"`

	defs []metricDef
}

func newResult(w workload, seed int64, traced bool) *result {
	r := &result{Workload: w.name, Seed: seed, Traced: traced, defs: endToEnd}
	if traced {
		r.defs = perLayer
	}
	return r
}

// fail counts one operation whose outcome was wrong and keeps the first few
// descriptions for the report.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// merge adds the operations another goroutine counted in o.
func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Failures = append(r.Failures, o.Failures...)
}

// check counts n attempted operations and, when ok is false, one failure.
func (r *result) check(n int64, ok bool, format string, args ...any) {
	r.Attempted += n
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) unit(name string) string {
	for _, d := range r.defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// put reports the median of s under name.
func (r *result) put(name string, s sample) {
	r.Readings = append(r.Readings, reading{
		Name: name, Unit: r.unit(name), Value: s.median(),
		N: len(s), Min: s.min(), Q1: s.quantile(0.25), Q3: s.quantile(0.75),
	})
}

// putValue reports a value read once.
func (r *result) putValue(name string, v float64) { r.put(name, sample{v}) }

func (r *result) get(name string) (reading, bool) {
	for _, m := range r.Readings {
		if m.Name == name {
			return m, true
		}
	}
	return reading{}, false
}

// complete fails the run for every declared metric it did not report.
func (r *result) complete() {
	for _, d := range r.defs {
		if _, ok := r.get(d.name); !ok {
			r.fail("metric %s was not measured", d.name)
		}
	}
}

// writeReport prints every reading by name and unit for a human.
func (r *result) writeReport(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s ==\n", r.Workload, r.Seed, kind)
	for _, m := range r.Readings {
		if m.N > 1 {
			fmt.Fprintf(w, "  %-34s %14.6g %-7s n=%-5d min %.6g  q1 %.6g  q3 %.6g\n", m.Name, m.Value, m.Unit, m.N, m.Min, m.Q1, m.Q3)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %-7s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  ops %d  failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// writeLine prints the one-line JSON object the benchmark driver reads.
func (r *result) writeLine(w io.Writer) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range r.Readings {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
