package harness

import (
	"reflect"
	"strings"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/obs"
	"stmdiag/internal/prof"
)

// profConfig is a small sequential-pipeline configuration for profiler
// tests; per-test fields (Jobs, Obs) are filled in by the caller.
func profConfig() Config {
	return Config{
		FailRuns:     3,
		SuccRuns:     3,
		CBIRuns:      20,
		OverheadRuns: 2,
		MaxAttempts:  200,
	}
}

// profCounters filters a snapshot down to the deterministic profiler
// families (prof.*), dropping the wall-clock pool/worker instruments that
// are jobs-variant by design.
func profCounters(s obs.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "prof.") {
			out[name] = v
		}
	}
	return out
}

// TestProfJobsInvariance is the profiler's core determinism contract: every
// deterministic counter family (per-opcode, per-phase, per-app, alloc
// sites) and the rendered report derived from them must be byte-identical
// for every -jobs value, because opcode/alloc counters ride per-trial sinks
// merged at commit in trial order and phase rollups are cycle-clock deltas
// between fan-out barriers.
func TestProfJobsInvariance(t *testing.T) {
	app := apps.ByName("sort")
	var wantCounters map[string]uint64
	var wantJSON []byte
	for _, jobs := range testPoolJobs() {
		cfg := profConfig()
		cfg.Jobs = jobs
		cfg.Obs = &obs.Sink{Metrics: obs.NewRegistry(), Profiling: true}
		if _, err := RunSequential(app, cfg); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		snap := cfg.Obs.Metrics.Snapshot()
		got := profCounters(snap)

		// The deterministic report view: same parse the -profile-report flag
		// and /profilez use, with the wall-clock sections stripped.
		rep := prof.FromSnapshot(snap)
		rep.Workers = nil
		rep.Pool = prof.PoolStats{}
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}

		if wantCounters == nil {
			wantCounters, wantJSON = got, js
			// Every family the pipeline should touch must be populated.
			if n := len(got); n == 0 {
				t.Fatal("profiling run recorded no prof.* counters")
			}
			sawOp := false
			for name := range got {
				if strings.HasPrefix(name, "prof.op.") {
					sawOp = true
					break
				}
			}
			if !sawOp {
				t.Error("no per-opcode counters recorded")
			}
			for _, name := range []string{
				"prof.phase.capture.cycles",
				"prof.phase.capture.runs",
				"prof.phase.replay.cycles",
				"prof.app.sort.capture.cycles",
				"prof.alloc.pmu.lbr.allocs",
			} {
				if got[name] == 0 {
					t.Errorf("%s = 0, want > 0 (counters: %d families)", name, len(got))
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, wantCounters) {
			t.Errorf("jobs=%d: prof.* counters diverged from jobs=%d", jobs, testPoolJobs()[0])
			for name, v := range got {
				if wantCounters[name] != v {
					t.Errorf("  %s: got %d, want %d", name, v, wantCounters[name])
				}
			}
			for name, v := range wantCounters {
				if _, ok := got[name]; !ok {
					t.Errorf("  %s: missing (want %d)", name, v)
				}
			}
		}
		if string(js) != string(wantJSON) {
			t.Errorf("jobs=%d: deterministic report JSON diverged (%d vs %d bytes)",
				jobs, len(js), len(wantJSON))
		}
	}
}

// TestProfTableNeutrality: arming the profiler must not change a rendered
// table by a single byte — attribution only ever reads machine state, and
// the report rides stderr, never stdout.
func TestProfTableNeutrality(t *testing.T) {
	render := func(profiling bool) string {
		cfg := profConfig()
		cfg.Jobs = 2
		cfg.Obs = &obs.Sink{Metrics: obs.NewRegistry(), Profiling: profiling}
		out, err := RenderTable(3, cfg)
		if err != nil {
			t.Fatalf("profiling=%v: %v", profiling, err)
		}
		return out
	}
	off, on := render(false), render(true)
	if off != on {
		t.Errorf("profiling changed table 3 output:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
}

// TestProfWorkerInstrumentsGated: the wall-clock pool instruments only
// materialize when profiling is armed, keeping the default telemetry
// snapshot byte-compatible with earlier releases.
func TestProfWorkerInstrumentsGated(t *testing.T) {
	run := func(profiling bool) obs.Snapshot {
		sink := &obs.Sink{Metrics: obs.NewRegistry(), Profiling: profiling}
		p := NewPool(3, sink)
		if _, _, err := CollectKind[int](p, 12, 12, "gate", "script", acceptAll); err != nil {
			t.Fatal(err)
		}
		return sink.Metrics.Snapshot()
	}
	plain := run(false)
	for name := range plain.Counters {
		if strings.HasSuffix(name, ".busy_ns") || strings.HasSuffix(name, ".idle_ns") ||
			strings.HasSuffix(name, ".stall_ns") {
			t.Errorf("unprofiled run leaked wall-clock counter %s", name)
		}
	}
	if _, ok := plain.Gauges["harness.pool.queue.depth"]; ok {
		t.Error("unprofiled run leaked the queue-depth gauge")
	}
	armed := run(true)
	// Which worker runs how many trials is scheduler-dependent, so assert
	// on the pool-wide total, not any one worker.
	var busy uint64
	for name, v := range armed.Counters {
		if strings.HasSuffix(name, ".busy_ns") {
			busy += v
		}
	}
	if busy == 0 {
		t.Error("profiled run recorded no busy_ns across any worker")
	}
	if _, ok := armed.Gauges["harness.pool.queue.depth"]; !ok {
		t.Error("profiled run missing the queue-depth gauge")
	}
}
