// Command benchmark is this repository's benchmark: one command that
// generates seeded inputs, drives the public facade for the end-to-end
// numbers, times each internal package from outside for the per-layer numbers,
// checks every output against the linear oracle, and prints every metric by
// name and unit. BENCHMARK.json at the repository root is its contract and
// README.md its manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/engine"
)

// host records where a set of numbers was measured; numbers from different
// hosts are not comparable.
type host struct {
	CPU            string `json:"cpu"`
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	Kernel         string `json:"scan_kernel"`
	KernelFallback string `json:"scan_kernel_fallback"`
}

func fingerprint() host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Kernel: engine.DefaultKernel(), KernelFallback: engine.KernelFallback(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is stamped at build time when the source is a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// record is what -json writes: every result of one invocation with the host
// it ran on.
type record struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, in order)")
	seed := fs.Int64("seed", 2008, "seed of the traffic (seed+1) and the update pool (seed+2)")
	seconds := fs.Float64("seconds", 16, "measuring time of one workload run")
	trace := fs.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	jsonPath := fs.String("json", "", "also write the full record (host, samples, quartiles) to this file")
	compare := fs.Bool("compare", false, "compare two -json records given as arguments and print a verdict per metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two record files")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -help")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	o := options{seed: *seed, seconds: *seconds, scale: 1, outDir: "out"}
	rec := record{Host: fingerprint(), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stdout, "host: %s, %d cpus, GOMAXPROCS %d, %s, commit %s, scan kernel %s\n",
		rec.Host.CPU, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit, rec.Host.Kernel)
	failed := false
	for _, w := range selected {
		res, err := runWorkload(w, o, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		rec.Results = append(rec.Results, res)
		res.writeReport(stdout)
		if err := res.writeLine(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		failed = failed || res.Failed > 0
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload generates the inputs of w and makes one run over them.
func runWorkload(w workload, o options, traced bool, stdout io.Writer) (*result, error) {
	in, err := generate(w, o.seed, o.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		return runTraced(in, o, stdout)
	}
	return runEndToEnd(in, o)
}
