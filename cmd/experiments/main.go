// Command experiments regenerates the tables of the paper's evaluation
// section (Tables 1–7) from the re-authored benchmark suite, plus the
// repo-added Table 8 robustness sweep over the fault injectors and
// Table 9, the generated-bug-corpus ranking bake-off.
//
// Usage:
//
//	experiments [-table N] [-failruns N] [-succruns N] [-cbiruns N] [-overhead N] [-seed N]
//	            [-jobs N] [-ranker name] [-corpus] [-corpus-n N]
//	            [-executor inproc|subprocess] [-resume dir] [-worker-bin bin]
//	            [-faults spec] [-trace out.json] [-metrics] [-v]
//
// Without -table it regenerates every table. The defaults follow the
// paper's experiment configuration (10 failure + 10 success runs for
// LBRA/LCRA, 1000+1000 runs for CBI at 1/100 sampling); lower -cbiruns for
// a faster, noisier pass. -jobs fans independent trials across worker
// goroutines (default NumCPU; 1 forces sequential execution) — stdout is
// byte-identical for every value. -ranker swaps the diagnosis scoring
// formula (cbi, ochiai, tarantula) for the diagnosis-driving tables;
// -corpus renders only Table 9 and -corpus-n resizes its per-cell program
// count. -executor subprocess isolates trial execution in worker
// subprocesses (crash containment); -resume persists each committed trial
// into a durable artifact store and skips already-committed trials when the
// same command is re-run after a kill — stdout stays byte-identical in
// every combination. After each table a one-line summary on stderr reports
// the rows computed, app runs driven, simulated cycles and wall time; it
// exits non-zero on any table-generation error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stmdiag"
	"stmdiag/internal/cliobs"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
)

func main() {
	cliobs.MaybeTrialWorker()
	table := flag.Int("table", 0, fmt.Sprintf("table number 1-%d; 0 regenerates all", stmdiag.NumTables))
	failRuns := flag.Int("failruns", 10, "failure runs per LBRA/LCRA diagnosis")
	succRuns := flag.Int("succruns", 10, "success runs per LBRA/LCRA diagnosis")
	cbiRuns := flag.Int("cbiruns", 1000, "CBI runs per class (paper default 1000)")
	overhead := flag.Int("overhead", 10, "runs averaged per overhead figure")
	seed := flag.Int64("seed", 0, "base seed")
	jobs := flag.Int("jobs", 0, "trial-execution workers (0 = NumCPU, 1 = sequential)")
	corpus := flag.Bool("corpus", false, "render only Table 9, the generated-bug-corpus ranking bake-off")
	corpusN := flag.Int("corpus-n", 0, "Table 9 programs per (bug class x distance) cell (0 = default 13)")
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
		"cbiruns": *cbiRuns, "overhead": *overhead}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *corpusN < 0 {
		fmt.Fprintf(os.Stderr, "-corpus-n must be >= 0 (0 = default), got %d\n", *corpusN)
		os.Exit(2)
	}
	if *corpus && *table != 0 {
		fmt.Fprintln(os.Stderr, "-corpus and -table are mutually exclusive")
		os.Exit(2)
	}
	faults, err := tf.FaultSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *table < 0 || *table > stmdiag.NumTables {
		fmt.Fprintf(os.Stderr, "-table must be 0 (all) or 1..%d, got %d\n", stmdiag.NumTables, *table)
		os.Exit(2)
	}

	// The per-table summaries need the metrics registry even when the
	// telemetry flags are off.
	sink := tf.Sink()
	if sink == nil {
		sink = obs.NewSink()
	}
	// The telemetry server scrapes the same sink the sweep reports into,
	// so a multi-hour Table 1–8 run can be watched and profiled mid-run.
	if err := tf.Start(sink, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tf.ServeAddr != "" || tf.TracePath != "" {
		// The correlation ID every trial's federated telemetry is stamped
		// with (harness.Config derives the same value): grep it out of
		// worker deltas, traces and fleet batches to tie them to this run.
		fmt.Fprintf(os.Stderr, "telemetry: run id %016x\n", harness.RunID(*seed, "config"))
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
		FailRuns:      *failRuns,
		SuccRuns:      *succRuns,
		CBIRuns:       *cbiRuns,
		OverheadRuns:  *overhead,
		Jobs:          *jobs,
		Seed:          *seed,
		Obs:           sink,
		Faults:        faults,
		Ranker:        rf.Ranker(),
		CorpusPerCell: *corpusN,
		Executor:      executor,
		Artifacts:     store,
	}
	tables := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	switch {
	case *corpus:
		tables = []int{9}
	case *table != 0:
		tables = []int{*table}
	}
	for _, n := range tables {
		before := sink.Metrics.Snapshot()
		start := time.Now()
		out, err := stmdiag.RenderTable(n, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "table %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(out)
		// The summary is a diagnostic (wall time varies run to run), so it
		// goes to stderr: stdout stays byte-identical across -jobs values.
		d := sink.Metrics.Snapshot().Delta(before)
		fmt.Fprintf(os.Stderr, "table %d: rows=%d runs=%d cycles=%d wall=%v\n\n",
			n, d.Counter("harness.rows"), d.Counter("vm.runs"),
			d.Counter("vm.cycles"), time.Since(start).Round(time.Millisecond))
	}
	if err := tf.Finish(sink, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
