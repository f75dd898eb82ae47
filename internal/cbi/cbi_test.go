package cbi

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"stmdiag/internal/apps"
	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
	"stmdiag/internal/vm"
)

// cbiDemo fails (logged) exactly when branch ROOT takes its true edge.
const cbiDemo = `
.global n
.str msg "boom"
.func main
main:
    lea  r1, n
    ld   r2, [r1+0]
    movi r5, 0
loop:
.branch ITER
    cmpi r5, 20
    jge  after
    addi r5, 1
    jmp  loop
after:
.branch ROOT
    cmpi r2, 10
    jle  fine
    call error
fine:
    exit
.func error log
error:
    print msg
    fail 1
    ret
`

func collect(t *testing.T, prog *isa.Program, n int64, runs int, rate float64, seedBase int64) []RunObs {
	t.Helper()
	var out []RunObs
	for i := 0; i < runs; i++ {
		m, err := vm.New(prog, vm.Options{Seed: seedBase + int64(i), Globals: map[string]int64{"n": n}})
		if err != nil {
			t.Fatal(err)
		}
		o := NewObserver(rate, seedBase+int64(i)+9999)
		o.Attach(m)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o.Finish(res.Failed()))
	}
	return out
}

func prog(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.Assemble("cbidemo", cbiDemo)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCBIFindsPredictorWithManyRuns(t *testing.T) {
	p := prog(t)
	runs := collect(t, p, 20, 400, DefaultRate, 1) // failing input
	runs = append(runs, collect(t, p, 5, 400, DefaultRate, 50_000)...)
	scores := Rank(runs)
	pos := RankOf(scores, func(pr Pred) bool { return pr.Branch == "ROOT" && pr.Edge == isa.EdgeTrue })
	if pos != 1 {
		t.Errorf("ROOT=true rank = %d, want 1; top: %+v", pos, scores[0])
	}
}

func TestCBIMissesPredicateWithFewRuns(t *testing.T) {
	// With 1/100 sampling and a predicate evaluated once per run, a
	// handful of runs almost never observes the root cause — the paper's
	// diagnosis-latency argument (§5.3, §7.2).
	p := prog(t)
	runs := collect(t, p, 20, 10, DefaultRate, 1)
	runs = append(runs, collect(t, p, 5, 10, DefaultRate, 60_000)...)
	scores := Rank(runs)
	pos := RankOf(scores, func(pr Pred) bool { return pr.Branch == "ROOT" && pr.Edge == isa.EdgeTrue })
	if pos == 1 {
		// Not impossible, just very unlikely (~10% per run to observe).
		t.Logf("CBI got lucky with 10 runs (rank %d)", pos)
	}
}

func TestSamplingRateRespected(t *testing.T) {
	p := prog(t)
	dense := collect(t, p, 20, 30, 1.0, 7) // sample everything
	sparse := collect(t, p, 20, 30, 0.001, 7)
	denseObs, sparseObs := 0, 0
	for _, r := range dense {
		denseObs += len(r.Observed)
	}
	for _, r := range sparse {
		sparseObs += len(r.Observed)
	}
	if denseObs <= sparseObs {
		t.Errorf("dense sampling observed %d <= sparse %d", denseObs, sparseObs)
	}
	// Rate 1.0 must observe both predicates of every executed branch.
	if len(dense[0].Observed) != 4 { // ITER and ROOT, two edges each
		t.Errorf("full sampling observed %d predicates, want 4", len(dense[0].Observed))
	}
}

func TestCBIOverheadCharged(t *testing.T) {
	p := prog(t)
	base, err := vm.Run(p, vm.Options{Seed: 1, Globals: map[string]int64{"n": 5}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p, vm.Options{Seed: 1, Globals: map[string]int64{"n": 5}})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(DefaultRate, 2)
	o.Attach(m)
	inst, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Cycles <= base.Cycles {
		t.Errorf("instrumented cycles %d <= base %d", inst.Cycles, base.Cycles)
	}
	overhead := float64(inst.Cycles-base.Cycles) / float64(base.Cycles)
	if overhead < 0.01 || overhead > 1.0 {
		t.Errorf("CBI overhead = %.3f, want a noticeable double-digit-percent cost", overhead)
	}
}

func TestRankDegenerate(t *testing.T) {
	if got := Rank(nil); len(got) != 0 {
		t.Errorf("Rank(nil) = %v", got)
	}
	// Observed-only predicates (never true) score zero importance.
	runs := []RunObs{{
		Failed:   true,
		Observed: map[Pred]bool{{"B", isa.EdgeTrue}: true},
		True:     map[Pred]bool{},
	}}
	scores := Rank(runs)
	if len(scores) != 1 || scores[0].Importance != 0 {
		t.Errorf("scores = %+v", scores)
	}
	if RankOf(scores, func(Pred) bool { return true }) != 0 {
		t.Error("zero-importance predicate ranked")
	}
}

// attachStepRef instruments m the way Attach did before the VM had a
// branch hook: a per-instruction step hook that filters for conditional
// jumps carrying a source branch. It draws its sampling decisions from its
// own math/rand generator, seeded as the observer is, so it is an
// independent reference for both the branch-site hook and the owned
// generator's sampling decision.
func attachStepRef(o *Observer, rate float64, seed int64, m *vm.Machine) {
	prog := m.Prog()
	ref := rand.New(rand.NewSource(seed))
	m.SetStepHook(func(m *vm.Machine, t *vm.Thread, in *isa.Instr) {
		if !in.Op.IsCond() || in.BranchID == isa.NoBranch {
			return
		}
		if o.active != nil && !o.active[prog.BranchName(in.BranchID)] {
			return
		}
		m.AddCycles(vm.CostSampleCheck)
		if ref.Float64() >= rate {
			return
		}
		m.AddCycles(vm.CostSampleSlow)
		name := prog.BranchName(in.BranchID)
		outcome := in.Edge
		if !vm.CondTaken(in.Op, t.Flags) {
			outcome = in.Edge.Opposite()
		}
		for _, e := range []isa.BranchEdge{isa.EdgeFalse, isa.EdgeTrue} {
			o.obs.Observed[Pred{name, e}] = true
		}
		o.obs.True[Pred{name, outcome}] = true
	})
}

// The branch-site hook observes the same predicates, draws the sampling
// RNG in the same order and charges the same cycles as the per-instruction
// step-hook filter it replaced, sampling with math/rand, on hand-written
// and benchmark programs, whole or restricted.
func TestBranchHookMatchesStepHookFilter(t *testing.T) {
	type trial struct {
		name string
		prog *isa.Program
		opts vm.Options
	}
	trials := []trial{
		{"cbidemo/fail", prog(t), vm.Options{Seed: 3, Globals: map[string]int64{"n": 20}}},
		{"cbidemo/succeed", prog(t), vm.Options{Seed: 4, Globals: map[string]int64{"n": 5}}},
	}
	for _, name := range []string{"sort", "PBZIP1", "MySQL1"} {
		a := apps.ByName(name)
		if a == nil {
			t.Fatalf("no app %q", name)
		}
		trials = append(trials,
			trial{name + "/fail", a.Program(), a.Fail.VMOptions(11)},
			trial{name + "/succeed", a.Program(), a.Succeed.VMOptions(12)})
	}
	for _, tr := range trials {
		for _, restrict := range []bool{false, true} {
			for _, rate := range []float64{DefaultRate, 0.5, 1} {
				run := func(attach func(*Observer, *vm.Machine)) (RunObs, uint64) {
					m, err := vm.New(tr.prog, tr.opts)
					if err != nil {
						t.Fatal(err)
					}
					o := NewObserver(rate, 77)
					if restrict && len(tr.prog.Branches) > 0 {
						o.Restrict(map[string]bool{tr.prog.Branches[0].Name: true})
					}
					attach(o, m)
					res, err := m.Run()
					if err != nil {
						t.Fatal(err)
					}
					return o.Finish(res.Failed()), res.Cycles
				}
				got, gotCycles := run((*Observer).Attach)
				want, wantCycles := run(func(o *Observer, m *vm.Machine) { attachStepRef(o, rate, 77, m) })
				if !reflect.DeepEqual(got, want) || gotCycles != wantCycles {
					t.Errorf("%s restrict=%v rate=%v: branch hook %d cycles, %d/%d preds; step hook %d cycles, %d/%d preds",
						tr.name, restrict, rate, gotCycles, len(got.Observed), len(got.True),
						wantCycles, len(want.Observed), len(want.True))
				}
			}
		}
	}
}

// recordSites runs prog once under opts and returns its branch-site
// stream.
func recordSites(t testing.TB, prog *isa.Program, opts vm.Options) []Site {
	t.Helper()
	m, err := vm.New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sites []Site
	Record(m, &sites)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return sites
}

// Replay's run-length path makes the same decisions as Visit at every site
// of a recorded stream: the same observations, cycles and sample count,
// whole or restricted, at every rate; ReplayRun is the same replay.
func TestReplayMatchesVisit(t *testing.T) {
	sampled := obs.Default().Counter("cbi.predicates.sampled")
	type stream struct {
		name  string
		prog  *isa.Program
		sites []Site
	}
	p := prog(t)
	streams := []stream{{"cbidemo", p, recordSites(t, p, vm.Options{Seed: 3, Globals: map[string]int64{"n": 20}})}}
	for _, name := range []string{"sort", "paste", "PBZIP1"} {
		a := apps.ByName(name)
		streams = append(streams, stream{name, a.Program(), recordSites(t, a.Program(), a.Fail.VMOptions(5))})
	}
	for _, st := range streams {
		for _, restrict := range []bool{false, true} {
			var active map[string]bool
			if restrict {
				active = map[string]bool{st.prog.BranchName(int(st.sites[0].Branch)): true}
			}
			for _, rate := range []float64{0, 0.01, 0.5, 1} {
				for seed := int64(0); seed < 4; seed++ {
					before := sampled.Value()
					v := NewObserver(rate, seed)
					v.Restrict(active)
					var wantCycles uint64
					for _, s := range st.sites {
						wantCycles += v.Visit(st.prog, int(s.Branch), s.Outcome)
					}
					want, wantSamples := v.Finish(false), sampled.Value()-before

					before = sampled.Value()
					r := NewObserver(rate, seed)
					r.Restrict(active)
					gotCycles := r.Replay(st.prog, st.sites)
					got, gotSamples := r.Finish(false), sampled.Value()-before
					if !reflect.DeepEqual(got, want) || gotCycles != wantCycles || gotSamples != wantSamples {
						t.Errorf("%s restrict=%v rate=%v seed=%d: Replay %d cycles, %d samples, %d preds; Visit %d cycles, %d samples, %d preds",
							st.name, restrict, rate, seed, gotCycles, gotSamples, len(got.True),
							wantCycles, wantSamples, len(want.True))
					}
					run, runCycles := ReplayRun(rate, seed, active, st.prog, st.sites)
					if !reflect.DeepEqual(run, want) || runCycles != wantCycles {
						t.Errorf("%s restrict=%v rate=%v seed=%d: ReplayRun %d cycles, %d preds; Visit %d cycles, %d preds",
							st.name, restrict, rate, seed, runCycles, len(run.True), wantCycles, len(want.True))
					}
				}
			}
		}
	}
}

// A derived run keeps its observer, generator included, on the stack:
// replaying a short stream allocates only the observation maps, far less
// than one 4.9 KB generator.
func TestReplayRunAllocatesNoGenerator(t *testing.T) {
	p := prog(t)
	sites := recordSites(t, p, vm.Options{Seed: 3, Globals: map[string]int64{"n": 20}})
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ReplayRun(DefaultRate, int64(i), nil, p, sites)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4096 {
		t.Errorf("ReplayRun of %d sites allocates %d B per call, want < 4096", len(sites), per)
	}
}

// BenchmarkReplay samples a 7,000-site recorded stream (the first sites of
// a Cppcheck1 failure run) at the default rate, as one derived cbi-run
// trial does.
func BenchmarkReplay(b *testing.B) {
	a := apps.ByName("Cppcheck1")
	sites := recordSites(b, a.Program(), a.Fail.VMOptions(1))[:7000]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReplayRun(DefaultRate, int64(i), nil, a.Program(), sites)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sites)), "ns/site")
}
