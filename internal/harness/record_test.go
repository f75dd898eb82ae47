package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// metrics sink, in session sess (nil: run live). It returns the JSON
// value, the verdict and the trial sink's counters.
func runKind(t *testing.T, kf kindFunc, params any, stream string, i int, sess *session, faults *faultinj.Plan) (string, bool, obs.Snapshot) {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	sink := testWireSink()
	v, ok, err := kf(raw, stream, &Trial{Index: i, Sink: sink, Faults: faults, sess: sess})
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
	prof, err := failureProfileOf(runKey{app: a, fail: true, build: inst, driver: true}, 1, &Trial{})
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
// observations, every derived mean-cycles trial (plain, plain with the
// CBI hook, each instrumented build) exactly the live cycle count, and
// every derived profile trial (fail-profile on the toggling and
// non-toggling builds, succ-profile on the reactive build, strict and
// tolerant) exactly the live profile. All charge the same cycles to the
// trial's clock; only the derived trial leaves vm.runs at zero, proving it
// did not fall back to the VM. Fault
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
		sess := &session{}
		check := func(kind string, kf kindFunc, params any) {
			t.Helper()
			stream := a.Name + "/" + kind
			for _, spec := range specs {
				for i := 0; i < seeds; i++ {
					plan := func() *faultinj.Plan { return faultinj.NewPlan(spec, 0, stream, i, 0, nil) }
					want, wantOK, live := runKind(t, kf, params, stream, i, nil, plan())
					got, gotOK, derived := runKind(t, kf, params, stream, i, sess, plan())
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
		builds := seqBuilds(t, a)
		for _, b := range builds {
			b := b
			check("mean-cycles", meanCyclesKind, meanCyclesParams{App: a.Name, Build: &b, Seed: 3})
		}
		for _, b := range builds[:2] {
			check("fail-profile", failProfileKind, failProfileParams{App: a.Name, Build: b, Seed: 3})
		}
		for _, strict := range []bool{true, false} {
			check("succ-profile", succProfileKind, succProfileParams{App: a.Name, Build: builds[2], Seed: 3, Strict: strict})
		}
		// cbi-run and mean-cycles record the plain program apart (no
		// driver vs driver), per workload; plus one success-workload key
		// per build, which the reactive succ-profile trials share; plus
		// the failure workload on the two fail-profile builds.
		if n := len(sess.recs.runs); n != 2+1+4+2 {
			t.Errorf("%s: %d recordings, want 9", a.Name, n)
		}
	}
}

// TestDerivedFallsBackToVM covers the certificate's negative cases: a run
// that spawns threads and a trial whose fault plan arms a capture layer
// both execute on the VM (vm.runs grows on the trial sink, and
// harness.trials.derived stays zero), and the armed trial never even
// records.
func TestDerivedFallsBackToVM(t *testing.T) {
	live := func(what string, i int, snap obs.Snapshot) {
		t.Helper()
		if n, d := snap.Counter("vm.runs"), snap.Counter("harness.trials.derived"); n != 1 || d != 0 {
			t.Errorf("%s trial %d: vm.runs = %d, harness.trials.derived = %d; want 1, 0", what, i, n, d)
		}
	}
	sess := &session{}
	for i := 0; i < 3; i++ {
		_, _, snap := runKind(t, meanCyclesKind, ovParams(), "fb/ov", i, sess, nil)
		live("multi-threaded "+apps.RWWMicro.Name, i, snap)
	}
	conc := apps.Concurrent()[0]
	concBuild := core.Options{LBR: true, Toggling: true}
	for _, c := range []struct {
		kf     kindFunc
		params any
	}{
		{cbiRunKind, cbiRunParams{App: conc.Name, WantFail: true, Rate: 0.5, Seed: 3}},
		{failProfileKind, failProfileParams{App: conc.Name, Build: concBuild, Seed: 3}},
		{succProfileKind, succProfileParams{App: conc.Name, Build: concBuild, Seed: 3}},
	} {
		for i := 0; i < 3; i++ {
			_, _, snap := runKind(t, c.kf, c.params, "fb/conc", i, sess, nil)
			live(fmt.Sprintf("multi-threaded %+v", c.params), i, snap)
		}
	}
	for k, rec := range sess.recs.runs {
		if rec.ok {
			t.Errorf("%s recording certified, but its run spawns threads", k.app.Name)
		}
	}

	armed := &session{}
	sort := apps.ByName("sort")
	builds := seqBuilds(t, sort)
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
				{failProfileKind, failProfileParams{App: sort.Name, Build: builds[0], Seed: 3}},
				{succProfileKind, succProfileParams{App: sort.Name, Build: builds[2], Seed: 3}},
			} {
				_, _, snap := runKind(t, c.kf, c.params, "fb/faults", i, armed, plan())
				live(fmt.Sprintf("%s-armed %+v", in, c.params), i, snap)
			}
		}
	}
	if n := len(armed.recs.runs); n != 0 {
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

// TestDerivedTrialsJobsInvariance runs the sort Table 6 row — whose
// profile, CBI and overhead trials are all derived — at the golden configuration with
// metrics, trace and flight recorder armed, under in-process -jobs 1 and 4,
// the subprocess executor at -jobs 2, and a store-backed run that is cut
// and resumed. The row, the deterministic metrics, the trace bytes and the
// flight ring must be identical in all. (Profiling stays off: it names a
// trace lane per worker, which is jobs-variant by design.)
func TestDerivedTrialsJobsInvariance(t *testing.T) {
	type outcome struct {
		row                  SeqResult
		det, trace           []byte
		flight               string
		runs, derived, count uint64
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
		o := outcome{row: *row, runs: snap.Counter("vm.runs"),
			derived: snap.Counter("harness.trials.derived"), count: snap.Counter("harness.pool.committed")}
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
			// Cut the store mid-row (the stand-in for kill -9): the
			// trials past the cut re-execute, derived afresh.
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
			// Every trial derives: the 4+1+4 profile trials, the 40+40
			// CBI trials and the 6×2 overhead trials. The recordings run
			// against no sink, so no VM run is counted at all.
			if got.runs != 0 || got.count != 101 || got.derived != 101 {
				t.Fatalf("%s: %d VM runs, %d derived trials of %d; want 0, 101 of 101",
					v.name, got.runs, got.derived, got.count)
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
