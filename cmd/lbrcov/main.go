// Command lbrcov computes THeME-style branch coverage (paper §8 related
// work): it runs a benchmark or a synthetic program while draining the LBR
// every -period retired instructions, and reports the coverage recovered
// and the sampling cost — demonstrating why coverage needs whole-run
// profiling while failure diagnosis does not.
//
// Usage:
//
//	lbrcov -app sort [-period N] [-periods N,N,...] [-seed N] [-jobs N]
//	       [-faults spec] [-trace out.json] [-metrics] [-v]
//	lbrcov -synth [-funcs N] [-stmts N] [-period N]
//
// -periods sweeps several sampling periods in one invocation; the
// measurements fan out across -jobs workers (default NumCPU) and print in
// period order regardless of the worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stmdiag/internal/apps"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
	"stmdiag/internal/synth"
)

func main() {
	cliobs.MaybeTrialWorker()
	app := flag.String("app", "", "benchmark to cover (success workload)")
	useSynth := flag.Bool("synth", false, "cover a generated synthetic program instead")
	funcs := flag.Int("funcs", 12, "synthetic program functions")
	stmts := flag.Int("stmts", 40, "synthetic statements per function")
	period := flag.Int("period", 500, "steps between LBR drains")
	periodList := flag.String("periods", "", "comma-separated periods to sweep (overrides -period)")
	seed := flag.Int64("seed", 1, "seed")
	jobs := flag.Int("jobs", 0, "sweep workers (0 = NumCPU, 1 = sequential)")
	tf := cliobs.Register()
	flag.Parse()
	if err := tf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := cliobs.CheckJobs(*jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := tf.FaultSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *useSynth && *app != "" {
		fmt.Fprintln(os.Stderr, "-synth and -app are mutually exclusive")
		os.Exit(2)
	}
	sink := tf.Sink()
	if err := tf.Start(sink, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	target := harness.CoverageTarget{App: *app, Seed: *seed}
	switch {
	case *useSynth:
		target.Synth = &synth.Config{Seed: *seed, Funcs: *funcs, StmtsPerFunc: *stmts}
	case *app == "":
		flag.Usage()
		os.Exit(2)
	case apps.ByName(*app) == nil:
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *app)
		os.Exit(1)
	}
	prog, _, err := target.Program()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	periods := []int{*period}
	if *periodList != "" {
		periods = periods[:0]
		for _, f := range strings.Split(*periodList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad -periods entry %q\n", f)
				os.Exit(2)
			}
			periods = append(periods, n)
		}
	}

	pool := harness.NewPool(*jobs, sink).WithFaults(faults, *seed).WithRunID(harness.RunID(*seed, "cli"))
	results, err := harness.CoverageSweep(target, periods, pool)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("program:           %s (%d instructions, %d source branches)\n",
		prog.Name, len(prog.Instrs), len(prog.Branches))
	for i, res := range results {
		fmt.Printf("sampling period:   every %d steps (%d drains)\n", periods[i], res.Samples)
		fmt.Printf("edges executed:    %d\n", res.ExecutedEdges)
		fmt.Printf("edges recovered:   %d (%.1f%% coverage)\n", res.CoveredEdges, 100*res.Coverage)
		fmt.Printf("sampling overhead: %.1f%%\n", 100*res.Overhead)
	}
	if err := tf.Finish(sink, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
