package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/obs"
)

// runKind executes one kind body as trial i of stream, against a fresh
// metrics sink, with recs as the session's recordings (nil: run live). It
// returns the JSON value, the verdict and the trial sink's counters.
func runKind(t *testing.T, kf kindFunc, params any, stream string, i int, recs *recordings, faults *faultinj.Plan) (string, bool, obs.Snapshot) {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	sink := testWireSink()
	v, ok, err := kf(raw, stream, &Trial{Index: i, Sink: sink, Faults: faults, recs: recs})
	if err != nil {
		t.Fatalf("%s trial %d: %v", stream, i, err)
	}
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(js), ok, sink.Metrics.Snapshot()
}

// seqBuilds returns the four instrumented builds Table 6's overhead
// columns run: LBRLOG with and without toggling, reactive, proactive.
func seqBuilds(t *testing.T, a *apps.App) []core.Options {
	t.Helper()
	tog := core.Options{LBR: true, Toggling: true}
	inst, err := cachedBuild(a, tog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := failureProfileOf(a, inst, 1, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	failPC, err := origFailurePC(a, inst, prof)
	if err != nil {
		t.Fatal(err)
	}
	return []core.Options{
		tog,
		{LBR: true},
		{LBR: true, Toggling: true, Scheme: core.SchemeReactive, FailurePCs: []int{failPC}},
		{LBR: true, Toggling: true, Scheme: core.SchemeProactive},
	}
}

// TestDerivedMatchesLive is the exactness check of the recorded-run
// derivation: over every sequential app, both workloads and eight seeds, a
// derived cbi-run trial returns exactly the live run's verdict and
// observations, and every derived mean-cycles trial (plain, plain with the
// CBI hook, each instrumented build) exactly the live cycle count. Both
// charge the same cycles to the trial's clock; only the derived trial
// leaves vm.runs at zero, proving it did not fall back to the VM. Fault
// plans that arm only layers the VM never consults (the store layers, the
// harness's trial panic) keep trials derived, with the same results.
func TestDerivedMatchesLive(t *testing.T) {
	const seeds = 8
	var specs []faultinj.Spec
	for _, in := range []string{"off", "artifact-corrupt=0.01", "panic=0.3"} {
		spec, err := faultinj.ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, a := range apps.Sequential() {
		recs := &recordings{}
		check := func(kind string, kf kindFunc, params any) {
			t.Helper()
			stream := a.Name + "/" + kind
			for _, spec := range specs {
				for i := 0; i < seeds; i++ {
					plan := func() *faultinj.Plan { return faultinj.NewPlan(spec, 0, stream, i, 0, nil) }
					want, wantOK, live := runKind(t, kf, params, stream, i, nil, plan())
					got, gotOK, derived := runKind(t, kf, params, stream, i, recs, plan())
					if got != want || gotOK != wantOK {
						t.Errorf("%s %s %+v faults %q seed %d: derived (%v) %s, live (%v) %s",
							a.Name, kind, params, spec, i, gotOK, got, wantOK, want)
					}
					if d, l := derived.Counter("vm.cycles"), live.Counter("vm.cycles"); d != l {
						t.Errorf("%s %s %+v faults %q seed %d: derived charged %d cycles, live %d",
							a.Name, kind, params, spec, i, d, l)
					}
					if n := derived.Counter("vm.runs"); n != 0 {
						t.Errorf("%s %s %+v faults %q seed %d: derived trial ran the VM %d times",
							a.Name, kind, params, spec, i, n)
					}
				}
			}
		}
		for _, wantFail := range []bool{true, false} {
			for _, rate := range []float64{cbi.DefaultRate, 0.25} {
				check("cbi-run", cbiRunKind, cbiRunParams{App: a.Name, WantFail: wantFail, Rate: rate, Seed: 3})
			}
		}
		check("mean-cycles", meanCyclesKind, meanCyclesParams{App: a.Name, Seed: 3})
		check("mean-cycles", meanCyclesKind, meanCyclesParams{App: a.Name, CBIHook: true, Rate: cbi.DefaultRate, Seed: 3})
		for _, b := range seqBuilds(t, a) {
			b := b
			check("mean-cycles", meanCyclesKind, meanCyclesParams{App: a.Name, Build: &b, Seed: 3})
		}
		// cbi-run and mean-cycles record the plain program apart (no
		// driver vs driver), per workload; plus one key per build.
		if n := len(recs.runs); n != 2+1+4 {
			t.Errorf("%s: %d recordings, want 7", a.Name, n)
		}
	}
}

// TestDerivedFallsBackToVM covers the certificate's negative cases: a run
// that spawns threads and a trial whose fault plan arms a capture layer
// both execute on the VM (vm.runs grows on the trial sink), and the armed
// trial never even records.
func TestDerivedFallsBackToVM(t *testing.T) {
	recs := &recordings{}
	for i := 0; i < 3; i++ {
		_, _, snap := runKind(t, meanCyclesKind, ovParams(), "fb/ov", i, recs, nil)
		if n := snap.Counter("vm.runs"); n != 1 {
			t.Errorf("multi-threaded %s trial %d: vm.runs = %d, want 1", apps.RWWMicro.Name, i, n)
		}
	}
	conc := apps.Concurrent()[0]
	for i := 0; i < 3; i++ {
		_, _, snap := runKind(t, cbiRunKind, cbiRunParams{App: conc.Name, WantFail: true, Rate: 0.5, Seed: 3}, "fb/cbi", i, recs, nil)
		if n := snap.Counter("vm.runs"); n != 1 {
			t.Errorf("multi-threaded %s trial %d: vm.runs = %d, want 1", conc.Name, i, n)
		}
	}
	for k, rec := range recs.runs {
		if rec.ok {
			t.Errorf("%s recording certified, but its run spawns threads", k.app.Name)
		}
	}

	armed := &recordings{}
	sort := apps.ByName("sort")
	for _, in := range []string{"rate=0.01,seed=3", "lbr-drop=0.01"} {
		spec, err := faultinj.ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			plan := func() *faultinj.Plan { return faultinj.NewPlan(spec, 0, "fb/faults", i, 0, nil) }
			for _, c := range []struct {
				kf     kindFunc
				params any
			}{
				{cbiRunKind, cbiRunParams{App: sort.Name, WantFail: true, Rate: 0.5, Seed: 3}},
				{meanCyclesKind, meanCyclesParams{App: sort.Name, CBIHook: true, Rate: 0.5, Seed: 3}},
			} {
				_, _, snap := runKind(t, c.kf, c.params, "fb/faults", i, armed, plan())
				if n := snap.Counter("vm.runs"); n != 1 {
					t.Errorf("%s-armed %+v trial %d: vm.runs = %d, want 1", in, c.params, i, n)
				}
			}
		}
	}
	if n := len(armed.runs); n != 0 {
		t.Errorf("fault-armed trials recorded %d runs, want none", n)
	}
}

// TestRecordingOncePerKey: concurrent and repeated lookups of one key in a
// session share one recording — one VM run — while another session
// records its own.
func TestRecordingOncePerKey(t *testing.T) {
	k := runKey{app: apps.ByName("sort"), fail: true}
	recs := &recordings{}
	got := make([]*recording, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = recs.lookup(k)
		}(i)
	}
	wg.Wait()
	if got[0] == nil || len(got[0].sites) == 0 {
		t.Fatalf("sort failure run not certified or empty: %+v", got[0])
	}
	for i, rec := range append(got, recs.lookup(k)) {
		if rec != got[0] {
			t.Fatalf("lookup %d returned a second recording of one key", i)
		}
	}
	if n := len(recs.runs); n != 1 {
		t.Errorf("%d recordings, want 1", n)
	}
	other := (&recordings{}).lookup(k)
	if other == got[0] || !reflect.DeepEqual(other.sites, got[0].sites) || other.cycles != got[0].cycles {
		t.Error("a second session did not record the same run afresh")
	}
	if (*recordings)(nil).lookup(k) != nil {
		t.Error("a nil table returned a recording")
	}
}

// TestDerivedTrialsJobsInvariance runs the sort Table 6 row — whose CBI
// and overhead trials are derived — at the golden configuration with
// metrics, trace and flight recorder armed, under in-process -jobs 1 and 4,
// the subprocess executor at -jobs 2, and a store-backed run that is cut
// and resumed. The row, the deterministic metrics, the trace bytes and the
// flight ring must be identical in all. (Profiling stays off: it names a
// trace lane per worker, which is jobs-variant by design.)
func TestDerivedTrialsJobsInvariance(t *testing.T) {
	type outcome struct {
		row         SeqResult
		det, trace  []byte
		flight      string
		runs, count uint64
	}
	a := apps.ByName("sort")
	dir := t.TempDir()
	run := func(jobs int, exec Executor, store *artifact.Store) outcome {
		t.Helper()
		cfg := goldenConfig()
		cfg.Jobs, cfg.Executor, cfg.Artifacts = jobs, exec, store
		cfg.Obs = &obs.Sink{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(),
			Flight: obs.NewFlightRecorder(obs.DefaultFlightCap)}
		row, err := RunSequential(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		row.Metrics = nil
		snap := cfg.Obs.Metrics.Snapshot()
		o := outcome{row: *row, runs: snap.Counter("vm.runs"), count: snap.Counter("harness.pool.committed")}
		if o.det, err = snap.Deterministic().JSON(); err != nil {
			t.Fatal(err)
		}
		if o.trace, err = cfg.Obs.Trace.ChromeJSON(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range cfg.Obs.Flight.Snapshot() {
			o.flight += ev.String() + "\n"
		}
		return o
	}
	openStore := func() *artifact.Store {
		s, err := artifact.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	variants := []struct {
		name string
		run  func() outcome
	}{
		{"inproc-jobs1", func() outcome { return run(1, nil, nil) }},
		{"inproc-jobs4", func() outcome { return run(4, nil, nil) }},
		{"subprocess-jobs2", func() outcome {
			e, err := NewSubprocExecutor(SubprocOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			return run(2, e, nil)
		}},
		{"store-fresh", func() outcome {
			s := openStore()
			defer s.Close()
			return run(2, nil, s)
		}},
		{"store-resumed", func() outcome {
			// Cut the store mid-row (the stand-in for kill -9): the CBI
			// and overhead trials past the cut re-execute, derived afresh.
			s := openStore()
			manifest := s.ManifestPath()
			s.Close()
			if err := artifact.TruncateJournal(manifest, 60); err != nil {
				t.Fatal(err)
			}
			s = openStore()
			defer s.Close()
			return run(1, nil, s)
		}},
	}
	var want outcome
	for i, v := range variants {
		got := v.run()
		if i == 0 {
			want = got
			// The 40+40 CBI trials and the 6×2 overhead trials are
			// derived; only the capture trials run the VM.
			if got.runs == 0 || got.count-got.runs != 92 {
				t.Fatalf("%s: %d VM runs for %d trials, want all but the 92 CBI and overhead trials",
					v.name, got.runs, got.count)
			}
			continue
		}
		if !reflect.DeepEqual(got.row, want.row) {
			t.Errorf("%s: row %+v, want %+v", v.name, got.row, want.row)
		}
		if !bytes.Equal(got.det, want.det) {
			t.Errorf("%s: deterministic metrics diverge:\n%s\nvs\n%s", v.name, got.det, want.det)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("%s: trace bytes diverge (%d vs %d bytes)", v.name, len(got.trace), len(want.trace))
		}
		if got.flight != want.flight {
			t.Errorf("%s: flight ring diverges:\n%s\nvs\n%s", v.name, got.flight, want.flight)
		}
	}
}
