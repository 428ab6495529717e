// Command pctables regenerates the paper's evaluation tables (Tables 2-8)
// and the §5.2/§5.3 headline claims, plus the design-decision ablations
// and the seed-sensitivity study.
//
// Usage:
//
//	pctables                  # all tables at the paper's sizes
//	pctables -table 4         # one table
//	pctables -quick           # reduced sizes/trace for a fast smoke run
//	pctables -seed 1 -trace 50000
//	pctables -ablation -sensitivity
//
// Table 4 at the full paper sizes builds trees for up to ~25,000 rules
// and takes minutes on one core; -quick caps sizes. Host performance of
// the software engine is measured by benchmark/ (see benchmark/README.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/classbench"
)

func main() {
	var (
		table       = flag.Int("table", 0, "table to print (2-8; 0 = all plus claims)")
		seed        = flag.Int64("seed", 2008, "ruleset/trace generation seed")
		trace       = flag.Int("trace", 20000, "trace length per measurement")
		quick       = flag.Bool("quick", false, "reduced sizes for a fast run")
		ablation    = flag.Bool("ablation", false, "also print the design-decision ablations")
		sensitivity = flag.Bool("sensitivity", false, "also print the seed-sensitivity study")
	)
	flag.Parse()

	opts := bench.Options{Seed: *seed, TracePackets: *trace}
	ablN := 1500
	if *quick {
		opts.Sizes = []int{60, 150, 500, 1000}
		opts.Table4Sizes = []int{300, 1200, 2500}
		ablN = 600
		if *trace == 20000 {
			opts.TracePackets = 5000
		}
	}

	if err := run(*table, *ablation, *sensitivity, ablN, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pctables:", err)
		os.Exit(1)
	}
}

func run(table int, ablation, sensitivity bool, ablN int, opts bench.Options) error {
	needACL := table == 0 || table == 2 || table == 3 || table == 6 || table == 7 || table == 8
	var rows []bench.ACL1Row
	var err error
	if needACL {
		fmt.Fprintf(os.Stderr, "building acl1 classifiers for sizes %v...\n", sizesOf(opts))
		rows, err = bench.RunACL1(opts)
		if err != nil {
			return err
		}
	}
	show := func(n int, t *bench.Table) {
		if table == 0 || table == n {
			fmt.Println(t.Format())
		}
	}
	if rows != nil {
		show(2, bench.Table2(rows))
		show(3, bench.Table3(rows))
	}
	show(5, bench.Table5())
	if rows != nil {
		show(6, bench.Table6(rows))
		show(7, bench.Table7(rows))
		show(8, bench.Table8(rows))
	}
	if table == 0 || table == 4 {
		fmt.Fprintln(os.Stderr, "building table 4 profiles (this is the slow one)...")
		t4, err := bench.RunTable4(opts)
		if err != nil {
			return err
		}
		fmt.Println(bench.Table4(t4).Format())
	}
	if ablation {
		fmt.Fprintln(os.Stderr, "measuring ablations...")
		ab, err := bench.RunAblations(opts, ablN)
		if err != nil {
			return err
		}
		fmt.Println(bench.AblationTable(ab).Format())
	}
	if sensitivity {
		fmt.Fprintln(os.Stderr, "running seed-sensitivity study...")
		rows, err := bench.RunSeedSensitivity(2191, nil, opts.TracePackets)
		if err != nil {
			return err
		}
		fmt.Println(bench.SensitivityTable(2191, rows).Format())
	}
	if table == 0 {
		fmt.Fprintln(os.Stderr, "measuring headline claims (RFC build is slow at 2191 rules)...")
		cl, err := bench.RunClaims(opts)
		if err != nil {
			return err
		}
		fmt.Println(bench.ClaimsTable(cl).Format())
		exp, err := bench.TCAMExpansion(opts, 1000)
		if err != nil {
			return err
		}
		fmt.Println(exp.Format())
	}
	return nil
}

func sizesOf(opts bench.Options) []int {
	if len(opts.Sizes) > 0 {
		return opts.Sizes
	}
	return classbench.PaperSizes(2, "acl1")
}
