package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contractPath is BENCHMARK.json as seen from this directory, where run.sh
// and `go run -C benchmark .` both start the program.
const contractPath = "../BENCHMARK.json"

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareRecords prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the bound, and a verdict. It is how the bounds
// in BENCHMARK.json were calibrated: two back-to-back runs of one commit must
// read "within" everywhere.
func compareRecords(w io.Writer, pathA, pathB string) error {
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var a, b record
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: the records come from different hosts or commits:\n  a: %+v\n  b: %+v\n", a.Host, b.Host)
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %6s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	outside := 0
	for _, ra := range a.Results {
		if ra.Traced {
			continue
		}
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload && !r.Traced {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, oka := ra.get(d.name)
			mb, okb := rb.get(d.name)
			if !oka || !okb || ma.Value == 0 {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.higherBetter {
				worse = -worse
			}
			verdict := "within"
			switch {
			case d.exact && a.Seed == b.Seed && ma.Value != mb.Value:
				verdict = "exact-mismatch"
				outside++
			case worse > bounds[d.name]:
				verdict = "outside"
				outside++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.1f%% %5.0f%%  %s\n",
				ra.Workload, d.name, ma.Value, mb.Value, 100*worse, 100*bounds[d.name], verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed operations: a %d, b %d\n", ra.Workload, ra.Failed, rb.Failed)
			outside++
		}
	}
	fmt.Fprintf(w, "%d pairings outside their bound\n", outside)
	return nil
}
