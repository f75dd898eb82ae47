// Command stmdiag runs one benchmark of the re-authored Table 4 suite
// through the paper's diagnosis pipeline and reports what the short-term
// memory of the hardware saw.
//
// Usage:
//
//	stmdiag -list
//	stmdiag -app sort [-failruns N] [-succruns N] [-seed N]
//	        [-jobs N] [-ranker name] [-executor inproc|subprocess] [-resume dir]
//	        [-faults spec] [-trace out.json] [-metrics] [-v]
//
// For a sequential benchmark it prints the Table 6 row (LBRLOG entry ranks
// with and without toggling, LBRA and CBI predictor ranks, patch distances,
// overheads); for a concurrency benchmark the Table 7 row (LCRLOG entry
// ranks under both configurations and LCRA's verdict).
package main

import (
	"flag"
	"fmt"
	"os"

	"stmdiag"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
)

func main() {
	cliobs.MaybeTrialWorker()
	list := flag.Bool("list", false, "list the benchmark suite")
	all := flag.Bool("all", false, "diagnose every benchmark (summary lines)")
	app := flag.String("app", "", "benchmark to diagnose (see -list)")
	failRuns := flag.Int("failruns", 10, "failure runs for automatic diagnosis")
	succRuns := flag.Int("succruns", 10, "success runs for automatic diagnosis")
	cbiRuns := flag.Int("cbiruns", 400, "CBI baseline runs per class")
	seed := flag.Int64("seed", 0, "base seed")
	jobs := flag.Int("jobs", 0, "trial-execution workers (0 = NumCPU, 1 = sequential)")
	rf := cliobs.RegisterRanker()
	ef := cliobs.RegisterExec()
	tf := cliobs.Register()
	flag.Parse()
	if err := tf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := rf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := ef.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := cliobs.CheckJobs(*jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := cliobs.CheckRuns(map[string]int{"failruns": *failRuns, "succruns": *succRuns,
		"cbiruns": *cbiRuns}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faults, err := tf.FaultSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *all && *app != "" {
		fmt.Fprintln(os.Stderr, "-all and -app are mutually exclusive")
		os.Exit(2)
	}
	if *list && (*all || *app != "") {
		fmt.Fprintln(os.Stderr, "-list takes no benchmark selection")
		os.Exit(2)
	}
	sink := tf.Sink()
	if err := tf.Start(sink, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tf.ServeAddr != "" || tf.TracePath != "" {
		// The correlation ID stamped into every trial's federated telemetry.
		fmt.Fprintf(os.Stderr, "telemetry: run id %016x\n", harness.RunID(*seed, "config"))
	}
	defer func() {
		if err := tf.Finish(sink, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()

	if *list {
		fmt.Printf("%-12s %-9s %8s  %-22s %s\n", "name", "version", "KLOC", "root cause", "symptom")
		for _, b := range stmdiag.Benchmarks() {
			fmt.Printf("%-12s %-9s %8.1f  %-22s %s\n", b.Name, b.Version, b.KLOC, b.RootCause, b.Symptom)
		}
		return
	}
	executor, store, err := ef.Build(sink, faults, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if executor != nil {
			executor.Close() //nolint:errcheck // best-effort teardown
		}
		if store != nil {
			store.Close() //nolint:errcheck
		}
	}()
	cfg := stmdiag.ExperimentConfig{
		FailRuns:  *failRuns,
		SuccRuns:  *succRuns,
		CBIRuns:   *cbiRuns,
		Jobs:      *jobs,
		Seed:      *seed,
		Obs:       sink,
		Faults:    faults,
		Ranker:    rf.Ranker(),
		Executor:  executor,
		Artifacts: store,
	}
	if *all {
		for _, b := range stmdiag.Benchmarks() {
			if b.Concurrent {
				row, err := stmdiag.ConcurrentRow(b.Name, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", b.Name, err)
					os.Exit(1)
				}
				fmt.Printf("%-12s LCRLOG conf1=%s conf2=%s LCRA=%s\n",
					b.Name, rank(row.RankConf1), rank(row.RankConf2), rank(row.LCRARank))
			} else {
				row, err := stmdiag.SequentialRow(b.Name, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", b.Name, err)
					os.Exit(1)
				}
				star := ""
				if row.Related {
					star = "*"
				}
				fmt.Printf("%-12s LBRLOG tog=%s%s notog=%s LBRA=%s CBI=%s\n",
					b.Name, rank(row.RankToggling), star, rank(row.RankNoToggling),
					rank(row.LBRARank), cbiRank(row.CBIRank))
			}
		}
		return
	}
	if *app == "" {
		flag.Usage()
		os.Exit(2)
	}
	var info *stmdiag.BenchmarkInfo
	for _, b := range stmdiag.Benchmarks() {
		if b.Name == *app {
			bb := b
			info = &bb
		}
	}
	if info == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; try -list\n", *app)
		os.Exit(1)
	}
	fmt.Printf("%s %s (%.1f KLOC): %s bug, symptom: %s\n\n",
		info.Name, info.Version, info.KLOC, info.RootCause, info.Symptom)

	if info.Concurrent {
		row, err := stmdiag.ConcurrentRow(*app, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observed failure rate:              %.2f\n", row.FailRate)
		fmt.Printf("LCRLOG, space-saving config (Conf1): %s\n", rank(row.RankConf1))
		fmt.Printf("LCRLOG, space-consuming (Conf2):     %s\n", rank(row.RankConf2))
		fmt.Printf("LCRA best-predictor rank:            %s\n", rank(row.LCRARank))
		return
	}
	row, err := stmdiag.SequentialRow(*app, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	star := ""
	if row.Related {
		star = "* (related branch; root cause itself evicted)"
	}
	fmt.Printf("LBRLOG root-cause entry, toggling on:  %s%s\n", rank(row.RankToggling), star)
	fmt.Printf("LBRLOG root-cause entry, toggling off: %s\n", rank(row.RankNoToggling))
	fmt.Printf("LBRA predictor rank:                   %s\n", rank(row.LBRARank))
	fmt.Printf("CBI predictor rank:                    %s\n", cbiRank(row.CBIRank))
	fmt.Printf("patch distance from failure site:      %s lines\n", dist(row.PatchDistFailureSite))
	fmt.Printf("patch distance from LBR branches:      %s lines\n", dist(row.PatchDistLBR))
	fmt.Printf("overhead: LBRLOG %.2f%% (toggling) / %.2f%% (no toggling), LBRA %.2f%% (reactive) / %.2f%% (proactive), CBI %.2f%%\n",
		100*row.OvLogToggling, 100*row.OvLogNoToggling,
		100*row.OvLBRAReactive, 100*row.OvLBRAProactive, 100*row.OvCBI)
}

func rank(n int) string {
	if n <= 0 {
		return "missed"
	}
	return fmt.Sprintf("%d", n)
}

func cbiRank(n int) string {
	if n < 0 {
		return "N/A (C++)"
	}
	return rank(n)
}

func dist(d int) string {
	if d >= stmdiag.PatchDistInfinite {
		return "inf (different file)"
	}
	return fmt.Sprintf("%d", d)
}
