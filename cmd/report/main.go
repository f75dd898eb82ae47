// Command report produces the privacy-preserving failure-report bundle an
// end user's machine would ship to developers (paper §5.3): it runs one
// benchmark's failure workload under LBRLOG/LCRLOG instrumentation, audits
// the resulting bundle, and writes the JSON to stdout.
//
// Usage:
//
//	report -app sort [-seed N] [-jobs N] [-faults spec]
//	       [-trace out.json] [-metrics] [-v] > bundle.json
//
// The seed search fans out across -jobs workers (default NumCPU) and always
// reports the first failing seed at or after -seed, independent of the
// worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"stmdiag/internal/apps"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/core"
	"stmdiag/internal/harness"
	"stmdiag/internal/trace"
)

func main() {
	cliobs.MaybeTrialWorker()
	app := flag.String("app", "", "benchmark to crash and report (see stmdiag -list)")
	seed := flag.Int64("seed", 0, "starting scheduler seed")
	jobs := flag.Int("jobs", 0, "seed-search workers (0 = NumCPU, 1 = sequential)")
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
	sink := tf.Sink()
	if err := tf.Start(sink, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	finish := func() {
		if err := tf.Finish(sink, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *app == "" {
		flag.Usage()
		os.Exit(2)
	}
	a := apps.ByName(*app)
	if a == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *app)
		os.Exit(1)
	}
	inst, err := core.EnhanceLogging(a.Program(), harness.ReportBuild())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The search scans seeds *seed, *seed+1, ... and keeps the first failing
	// run in seed order, whatever the worker count.
	pool := harness.NewPool(*jobs, sink).WithFaults(faults, *seed).WithRunID(harness.RunID(*seed, "cli"))
	b, idx, err := harness.FirstKind[harness.ReportBundle](pool, 400, a.Name+"/report",
		harness.ReportKind, harness.ReportParams{App: a.Name, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if idx < 0 {
		fmt.Fprintln(os.Stderr, "no failing run within 400 seeds")
		finish()
		os.Exit(1)
	}
	if v := trace.Audit(inst.Prog, b.Data); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "privacy audit failed: %v\n", v)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "failure at seed %d; bundle audited clean (%d bytes)\n", b.Seed, len(b.Data))
	os.Stdout.Write(b.Data)
	fmt.Println()
	finish()
}
