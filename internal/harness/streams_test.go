package harness

import (
	"fmt"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/obs"
)

// streamCase is one trial stream rendered to a comparable string under a
// Config (its Jobs, Executor, Artifacts and Obs select the variant).
type streamCase struct {
	name string
	run  func(c Config) (string, error)
}

func streamCases() []streamCase {
	return []streamCase{
		{"table9", func(c Config) (string, error) {
			c.FailRuns, c.SuccRuns, c.CorpusPerCell = 4, 4, 1
			return Table9(c)
		}},
		{"coverage", func(c Config) (string, error) {
			res, err := CoverageSweep(CoverageTarget{App: "sort", Seed: 1}, []int{50, 500}, c.pool())
			if err != nil {
				return "", err
			}
			var s string
			for _, r := range res {
				s += fmt.Sprintf("%+v\n", *r)
			}
			return s, nil
		}},
		{"report", func(c Config) (string, error) {
			b, idx, err := FirstKind[ReportBundle](c.pool(), 400, "sort/report", ReportKind,
				ReportParams{App: "sort", Seed: c.Seed})
			return fmt.Sprintf("%d %d %x", idx, b.Seed, b.Data), err
		}},
		{"adaptive", func(c Config) (string, error) {
			r, err := RunAdaptive(apps.ByName("sort"), 1.0, 10, 40, c)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("found=%v iters=%d runs=%d frac=%v",
				r.Found, r.Iterations, r.RunsUsed, r.EvaluatedFraction), nil
		}},
	}
}

// TestStreamsAcrossExecutors: Table 9, the coverage sweep, the report
// bundle search and CBI-adaptive give identical results in-process at
// -jobs 1 and 4, under the subprocess executor, and from a fresh then a
// resumed artifact store. The resumed run executes nothing: every
// committed trial is a store hit, and (its fresh run having stored no
// telemetry) no VM run reaches its sink.
func TestStreamsAcrossExecutors(t *testing.T) {
	for _, sc := range streamCases() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(variant string, c Config) string {
				t.Helper()
				c.Seed = 1
				out, err := sc.run(c)
				if err != nil {
					t.Fatalf("%s: %v", variant, err)
				}
				return out
			}
			want := run("inproc-jobs1", Config{Jobs: 1})
			if got := run("inproc-jobs4", Config{Jobs: 4}); got != want {
				t.Errorf("inproc -jobs 4 diverges:\n got %s\nwant %s", got, want)
			}

			sink := testWireSink()
			e, err := NewSubprocExecutor(SubprocOptions{Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			got := run("subprocess-jobs2", Config{Jobs: 2, Executor: e, Obs: sink})
			e.Close()
			if got != want {
				t.Errorf("subprocess diverges:\n got %s\nwant %s", got, want)
			}
			if sink.Metrics.Snapshot().Counter("harness.executor.spawns") == 0 {
				t.Error("subprocess run spawned no workers")
			}

			dir := t.TempDir()
			open := func(sink *obs.Sink) *artifact.Store {
				s, err := artifact.Open(dir, sink)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			freshSink := testWireSink()
			store := open(freshSink)
			got = run("store-fresh", Config{Jobs: 1, Artifacts: store})
			store.Close()
			if got != want {
				t.Errorf("store-fresh diverges:\n got %s\nwant %s", got, want)
			}
			trials := freshSink.Metrics.Snapshot().Counter("artifact.puts")
			if trials == 0 {
				t.Fatal("fresh run stored no trials")
			}

			resSink := testWireSink()
			store = open(resSink)
			got = run("store-resumed", Config{Jobs: 1, Artifacts: store, Obs: resSink})
			store.Close()
			if got != want {
				t.Errorf("store-resumed diverges:\n got %s\nwant %s", got, want)
			}
			snap := resSink.Metrics.Snapshot()
			if hits := snap.Counter("artifact.hits"); hits != trials {
				t.Errorf("resumed run hit the store %d times, want %d", hits, trials)
			}
			if n := snap.Counter("artifact.misses"); n != 0 {
				t.Errorf("resumed run missed the store %d times, want 0", n)
			}
			if n := snap.Counter("vm.runs"); n != 0 {
				t.Errorf("resumed run ran the VM %d times, want 0", n)
			}
		})
	}
}
