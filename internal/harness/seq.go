// Package harness orchestrates the paper's experiments over the benchmark
// suite: it builds the instrumented program variants, drives failure and
// success runs, applies LBRA/LCRA and the CBI baseline, measures run-time
// overheads by cycle accounting, and renders every table of the evaluation:
// the paper's Tables 1–7 plus this reproduction's fault-robustness Table 8
// and the generated-bug-corpus ranking bake-off Table 9.
package harness

import (
	"fmt"
	"runtime"

	"stmdiag/internal/apps"
	"stmdiag/internal/artifact"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/isa"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/vm"
)

// Config sizes the experiments. The defaults follow paper §7.2: 10 failure
// and 10 success runs for LBRA/LCRA, 1000+1000 runs for CBI at its default
// 1/100 sampling rate.
type Config struct {
	// FailRuns and SuccRuns are the LBRA/LCRA profile counts.
	FailRuns, SuccRuns int
	// CBIRuns is the per-class (failing and successful) CBI run count.
	CBIRuns int
	// CBIRate is CBI's sampling rate.
	CBIRate float64
	// OverheadRuns is how many runs each overhead figure averages.
	OverheadRuns int
	// MaxAttempts bounds run attempts per collected profile (concurrency
	// benchmarks fail probabilistically).
	MaxAttempts int
	// Jobs is the trial-execution worker count: trials (independent app
	// runs) fan out across up to Jobs goroutines. 0 selects
	// runtime.NumCPU(); 1 is the strictly sequential path. Results are
	// byte-identical for every value — see pool.go.
	Jobs int
	// Seed is the base every trial seed is derived from (TrialSeed).
	Seed int64
	// Faults is the fault-injection spec (-faults). The zero spec is off;
	// an enabled spec derives a deterministic faultinj.Plan per trial
	// attempt, so results stay byte-identical for every Jobs value.
	Faults faultinj.Spec
	// LBRSize and LCRSize override record depths (0 = paper defaults).
	LBRSize, LCRSize int
	// Obs is the optional telemetry sink. It flows into every VM run the
	// harness drives; each table row is tagged on the trace and each
	// row result carries its metrics delta.
	Obs *obs.Sink
	// Ranker selects the scoring arithmetic for LBRA/LCRA diagnosis rows
	// (-ranker). The zero value is the paper's CBI-style harmonic mean, so
	// the golden tables are unchanged by the field's existence.
	Ranker core.Ranker
	// CorpusPerCell is Table 9's generated-program count per
	// (bug class × propagation distance) cell (-corpus-n); 0 selects
	// DefaultCorpusPerCell.
	CorpusPerCell int
	// Executor runs every trial (-executor); nil selects the
	// in-process executor. Results are byte-identical for every executor —
	// see wire.go.
	Executor Executor
	// Artifacts is the durable trial-result store (-resume); nil disables
	// persistence. With a store attached, trials committed by an
	// earlier (possibly killed) run are loaded back instead of re-executed,
	// and fresh results are persisted in commit order.
	Artifacts *artifact.Store
}

// DefaultConfig is the paper's experiment configuration.
var DefaultConfig = Config{
	FailRuns:     10,
	SuccRuns:     10,
	CBIRuns:      1000,
	CBIRate:      cbi.DefaultRate,
	OverheadRuns: 10,
	MaxAttempts:  400,
}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.FailRuns == 0 {
		c.FailRuns = d.FailRuns
	}
	if c.SuccRuns == 0 {
		c.SuccRuns = d.SuccRuns
	}
	if c.CBIRuns == 0 {
		c.CBIRuns = d.CBIRuns
	}
	if c.CBIRate == 0 {
		c.CBIRate = d.CBIRate
	}
	if c.OverheadRuns == 0 {
		c.OverheadRuns = d.OverheadRuns
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = d.MaxAttempts
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.NumCPU()
	}
	return c
}

// pool builds the trial-execution pool for one experiment entry point.
func (c Config) pool() *Pool {
	return NewPool(c.Jobs, c.Obs).WithFaults(c.Faults, c.Seed).
		WithRunID(RunID(c.Seed, "config")).
		WithExecutor(c.Executor).WithArtifacts(c.Artifacts)
}

// SeqResult is one sequential benchmark's Table 6 row.
type SeqResult struct {
	// App is the benchmark.
	App *apps.App
	// RankTog and RankNoTog are the LBR entry positions (1 = latest) of
	// the root-cause branch in the failure-run profile with and without
	// toggling; 0 means missed.
	RankTog, RankNoTog int
	// RelatedTog/RelatedNoTog mark ranks that refer to the related branch
	// because the root-cause branch itself was evicted (the * cases).
	RelatedTog, RelatedNoTog bool
	// LBRARank is the root-cause branch's position in LBRA's predictor
	// ranking; CBIRank is the same for CBI (0 = missed).
	LBRARank, CBIRank int
	// DistFailureSite and DistLBR are the patch distances of Table 6.
	DistFailureSite, DistLBR int
	// Overheads, as fractions (0.01 = 1%).
	OvLogTog, OvLogNoTog, OvReactive, OvProactive, OvCBI float64
	// Metrics is this row's telemetry delta, nil without a metrics sink.
	Metrics *obs.Snapshot
}

// runApp executes one instrumented run in the context of one trial
// attempt, wiring the trial's telemetry sink and fault plan into the VM.
// A nil trial runs outside the pool: no telemetry, no fault plan.
func runApp(inst *core.Instrumented, w apps.Workload, seed int64, cfg Config, tc *Trial) (*vm.Result, error) {
	opts := w.VMOptions(seed)
	opts.Driver = kernel.Driver{}
	opts.SegvIoctls = inst.SegvIoctls
	opts.LBRSize = cfg.LBRSize
	if tc != nil {
		opts.Obs = tc.Sink
		opts.Faults = tc.Faults
	}
	return vm.Run(inst.Prog, opts)
}

// branchRank returns the 1-based position of the first LBR record naming
// the branch, newest-first; 0 if absent.
func branchRank(p *isa.Program, prof vm.Profile, branch string) int {
	if branch == "" {
		return 0
	}
	for i, r := range prof.Branches {
		if r.From >= 0 && r.From < len(p.Instrs) {
			if id := p.Instrs[r.From].BranchID; id != isa.NoBranch && p.BranchName(id) == branch {
				return i + 1
			}
		}
	}
	return 0
}

// rankWithFallback resolves the root-cause rank, falling back to the
// related branch (the * cases of Table 6).
func rankWithFallback(a *apps.App, p *isa.Program, prof vm.Profile) (rank int, related bool) {
	if r := branchRank(p, prof, a.RootBranch); r > 0 {
		return r, false
	}
	if r := branchRank(p, prof, a.RelatedBranch); r > 0 {
		return r, true
	}
	return 0, false
}

// failureProfileOf runs the failure workload once and extracts the
// failure-run profile.
func failureProfileOf(a *apps.App, inst *core.Instrumented, seed int64, cfg Config, tc *Trial) (vm.Profile, error) {
	res, err := runApp(inst, a.Fail, seed, cfg, tc)
	if err != nil {
		return vm.Profile{}, err
	}
	if !a.Fail.FailedRun(res) {
		return vm.Profile{}, fmt.Errorf("harness: %s failure workload did not fail (seed %d)", a.Name, seed)
	}
	prof, ok := core.FailureRunProfile(res)
	if !ok {
		return vm.Profile{}, fmt.Errorf("harness: %s failure run produced no profile", a.Name)
	}
	return prof, nil
}

// origFailurePC maps a failure back to original-program coordinates for
// the reactive scheme: the faulting instruction for crash benchmarks, or
// the failing log-call site otherwise.
func origFailurePC(a *apps.App, inst *core.Instrumented, prof vm.Profile) (int, error) {
	if pc := a.FaultPC(); pc >= 0 {
		return pc, nil
	}
	// The profile site is the ioctl inserted right before the log call;
	// scan forward to the call, then invert the PC map.
	p := inst.Prog
	for pc := prof.Site; pc < len(p.Instrs) && pc < prof.Site+16; pc++ {
		if p.Instrs[pc].Op == isa.OpCall {
			for orig, now := range inst.PCMap {
				if now == pc {
					return orig, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("harness: cannot locate original failure site for %s (profile site %d)", a.Name, prof.Site)
}

// successProfiles collects success-run profiles on the given build through
// the trial pool. The trials are portable ("succ-profile" kind, strict
// mode: a run error aborts the collection), so they execute identically on
// any executor and resume from the artifact store.
func successProfiles(a *apps.App, build core.Options, cfg Config, pool *Pool) ([]core.ProfiledRun, error) {
	inst, err := cachedBuild(a, build)
	if err != nil {
		return nil, err
	}
	stream := a.Name + "/succ"
	profs, _, err := CollectKind[vm.Profile](pool, cfg.MaxAttempts, cfg.SuccRuns, stream, "succ-profile",
		succProfileParams{App: a.Name, Build: build, Seed: cfg.Seed, LBRSize: cfg.LBRSize, Strict: true})
	if err != nil {
		return nil, err
	}
	if len(profs) < cfg.SuccRuns {
		return nil, fmt.Errorf("harness: %s: only %d/%d success profiles", a.Name, len(profs), cfg.SuccRuns)
	}
	out := make([]core.ProfiledRun, len(profs))
	for i, prof := range profs {
		out[i] = core.ProfiledRun{Prog: inst.Prog, Profile: prof}
	}
	return out, nil
}

// RunSequential reproduces one Table 6 row.
func RunSequential(a *apps.App, cfg Config) (*SeqResult, error) {
	cfg = cfg.withDefaults()
	pool := cfg.pool()
	res := &SeqResult{App: a}
	rowStart := beginRow(cfg, a.Name, "sequential")

	optsLogTog := core.Options{LBR: true, Toggling: true}
	optsLogNoTog := core.Options{LBR: true}
	logTog, err := cachedBuild(a, optsLogTog)
	if err != nil {
		return nil, err
	}
	logNoTog, err := cachedBuild(a, optsLogNoTog)
	if err != nil {
		return nil, err
	}

	// LBRA failure profiles from the deployed (toggling) build; the first
	// doubles as Table 6's LBRLOG toggling profile. The trials are portable
	// ("fail-profile" kind): a run that happened not to fail is rejected,
	// not fatal — concurrency benchmarks fail probabilistically.
	endCapture := beginPhase(cfg, a.Name, phaseCapture)
	failStream := a.Name + "/fail"
	failProfs, _, err := CollectKind[vm.Profile](pool, cfg.MaxAttempts, cfg.FailRuns, failStream, "fail-profile",
		failProfileParams{App: a.Name, Build: optsLogTog, Seed: cfg.Seed, LBRSize: cfg.LBRSize})
	if err != nil {
		return nil, err
	}
	if len(failProfs) < cfg.FailRuns {
		return nil, fmt.Errorf("harness: %s: only %d/%d failure profiles", a.Name, len(failProfs), cfg.FailRuns)
	}
	failProfiles := make([]core.ProfiledRun, len(failProfs))
	for i, prof := range failProfs {
		failProfiles[i] = core.ProfiledRun{Prog: logTog.Prog, Profile: prof}
	}
	profTog := failProfiles[0].Profile
	res.RankTog, res.RelatedTog = rankWithFallback(a, logTog.Prog, profTog)

	noTogStream := a.Name + "/fail-notog"
	profNoTog, noTogIdx, err := FirstKind[vm.Profile](pool, cfg.MaxAttempts, noTogStream, "fail-profile",
		failProfileParams{App: a.Name, Build: optsLogNoTog, Seed: cfg.Seed, LBRSize: cfg.LBRSize})
	if err != nil {
		return nil, err
	}
	if noTogIdx < 0 {
		return nil, fmt.Errorf("harness: %s: no non-toggling failure profile", a.Name)
	}
	res.RankNoTog, res.RelatedNoTog = rankWithFallback(a, logNoTog.Prog, profNoTog)

	siteLoc := isa.SourceLoc{}
	if profTog.Site >= 0 && profTog.Site < len(logTog.Prog.Instrs) {
		siteLoc = logTog.Prog.Instrs[profTog.Site].Loc
	}
	res.DistFailureSite = a.Patch.Distance(siteLoc)
	res.DistLBR = a.Patch.MinDistance(core.BranchLocs(logTog.Prog, profTog))

	failPC, err := origFailurePC(a, logTog, failProfiles[0].Profile)
	if err != nil {
		return nil, err
	}
	optsReactive := core.Options{LBR: true, Toggling: true,
		Scheme: core.SchemeReactive, FailurePCs: []int{failPC}}
	succProfiles, err := successProfiles(a, optsReactive, cfg, pool)
	if err != nil {
		return nil, err
	}
	endCapture()
	endRank := beginPhase(cfg, a.Name, phaseRank)
	report, err := core.DiagnoseWith(core.ModeLBR, cfg.Ranker, failProfiles, succProfiles)
	if err != nil {
		return nil, err
	}
	if d := pool.FirstDegraded(); d != nil {
		report.AttachFlight(d.Events)
	}
	res.LBRARank = report.RankOfBranchEdge(a.RootBranch, a.BuggyEdge)
	if res.LBRARank == 0 && a.RelatedBranch != "" {
		res.LBRARank = report.RankOfBranch(a.RelatedBranch)
	}
	endRank()

	// CBI baseline and the overhead columns re-execute the workloads: the
	// replay phase of the cost attribution.
	endReplay := beginPhase(cfg, a.Name, phaseReplay)
	res.CBIRank, err = runCBI(a, cfg, pool)
	if err != nil {
		return nil, err
	}

	// Overheads on the success workload.
	optsProactive := core.Options{LBR: true, Toggling: true, Scheme: core.SchemeProactive}
	base, err := meanCycles(a, nil, false, cfg, pool, a.Name+"/ov-base")
	if err != nil {
		return nil, err
	}
	for _, v := range []struct {
		build  core.Options
		stream string
		out    *float64
	}{
		{optsLogTog, a.Name + "/ov-log-tog", &res.OvLogTog},
		{optsLogNoTog, a.Name + "/ov-log-notog", &res.OvLogNoTog},
		{optsReactive, a.Name + "/ov-reactive", &res.OvReactive},
		{optsProactive, a.Name + "/ov-proactive", &res.OvProactive},
	} {
		build := v.build
		cycles, err := meanCycles(a, &build, false, cfg, pool, v.stream)
		if err != nil {
			return nil, err
		}
		*v.out = overhead(base, cycles)
	}
	cbiCycles, err := meanCycles(a, nil, true, cfg, pool, a.Name+"/ov-cbi")
	if err != nil {
		return nil, err
	}
	res.OvCBI = overhead(base, cbiCycles)
	endReplay()
	res.Metrics = endRow(cfg, rowStart)
	return res, nil
}

// runCBI collects sampled predicate observations over many runs and ranks.
// It returns -1 for benchmarks CBI does not support (the paper's CBI
// framework handles C programs only; Cppcheck and PBZIP are C++).
func runCBI(a *apps.App, cfg Config, pool *Pool) (int, error) {
	if a.Paper.CBIRank < 0 {
		return -1, nil
	}
	if a.RootBranch == "" {
		return 0, nil
	}
	collect := func(wantFail bool, n int, label string) ([]cbi.RunObs, error) {
		stream := a.Name + "/" + label
		out, _, err := CollectKind[cbi.RunObs](pool, n*4, n, stream, "cbi-run",
			cbiRunParams{App: a.Name, WantFail: wantFail, Rate: cfg.CBIRate, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		if len(out) < n {
			return nil, fmt.Errorf("harness: %s: only %d/%d CBI %v runs", a.Name, len(out), n, wantFail)
		}
		return out, nil
	}
	failRuns, err := collect(true, cfg.CBIRuns, "cbi-fail")
	if err != nil {
		return 0, err
	}
	succRuns, err := collect(false, cfg.CBIRuns, "cbi-succ")
	if err != nil {
		return 0, err
	}
	scores := cbi.Rank(append(failRuns, succRuns...))
	rank := cbi.RankOf(scores, func(pr cbi.Pred) bool {
		return pr.Branch == a.RootBranch && pr.Edge == a.BuggyEdge
	})
	if rank == 0 && a.RelatedBranch != "" {
		rank = cbi.RankOf(scores, func(pr cbi.Pred) bool { return pr.Branch == a.RelatedBranch })
	}
	return rank, nil
}

// meanCycles averages run cycles on the success workload through the
// portable "mean-cycles" kind: build == nil runs the plain program (the
// baseline, and — with cbiHook — the CBI column); otherwise the selected
// instrumented variant.
func meanCycles(a *apps.App, build *core.Options, cbiHook bool, cfg Config, pool *Pool, stream string) (float64, error) {
	cycles, err := MapKind[uint64](pool, cfg.OverheadRuns, stream, "mean-cycles",
		meanCyclesParams{App: a.Name, Build: build, CBIHook: cbiHook,
			Rate: cfg.CBIRate, Seed: cfg.Seed, LBRSize: cfg.LBRSize})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, c := range cycles {
		total += c
	}
	return float64(total) / float64(cfg.OverheadRuns), nil
}

// overhead computes (v-base)/base, clamped at 0.
func overhead(base, v float64) float64 {
	if base <= 0 || v <= base {
		return 0
	}
	return (v - base) / base
}
