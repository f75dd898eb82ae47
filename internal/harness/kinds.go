package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"stmdiag/internal/apps"
	"stmdiag/internal/cbi"
	"stmdiag/internal/core"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// This file registers the trial kinds: every trial body in the harness,
// as a (name, JSON params) pair, so any trial can execute in any process
// and resume from the artifact store. A kind's result must depend only on
// its params, stream label and trial index — never on the process or
// worker that runs it — or the cross-executor golden-table identity
// breaks. The profile, CBI and overhead kinds live here; the Table 9,
// coverage and report kinds sit beside their callers.

func init() {
	registerKind("fail-profile", failProfileKind)
	registerKind("succ-profile", succProfileKind)
	registerKind("cbi-run", cbiRunKind)
	registerKind("mean-cycles", meanCyclesKind)
	registerKind("conc-profile", concProfileKind)
	registerKind("corpus-program", corpusProgramKind)
	registerKind("coverage-run", coverageRunKind)
	registerKind(ReportKind, reportBundleKind)
}

// kindApp resolves a benchmark by name. The Table 3 micro-benchmark lives
// outside the main registry, so it gets an explicit fallback.
func kindApp(name string) (*apps.App, error) {
	if a := apps.ByName(name); a != nil {
		return a, nil
	}
	if name == apps.RWWMicro.Name {
		return apps.RWWMicro, nil
	}
	return nil, fmt.Errorf("harness: unknown app %q", name)
}

// buildCache memoizes instrumented builds keyed by (app, options). Builds
// are deterministic, so a cached instance is interchangeable with a fresh
// one; caching keeps per-trial instrumentation off the worker hot path.
var buildCache sync.Map // app name + "\x00" + options JSON -> *core.Instrumented

func cachedBuild(a *apps.App, opts core.Options) (*core.Instrumented, error) {
	kb, err := json.Marshal(opts)
	if err != nil {
		return nil, fmt.Errorf("harness: encode build options: %w", err)
	}
	key := a.Name + "\x00" + string(kb)
	if v, ok := buildCache.Load(key); ok {
		return v.(*core.Instrumented), nil
	}
	inst, err := core.EnhanceLogging(a.Program(), opts)
	if err != nil {
		return nil, err
	}
	v, _ := buildCache.LoadOrStore(key, inst)
	return v.(*core.Instrumented), nil
}

// failProfileParams parameterizes one failure-run capture trial.
type failProfileParams struct {
	App     string       `json:"app"`
	Build   core.Options `json:"build"`
	Seed    int64        `json:"seed"`
	LBRSize int          `json:"lbrSize,omitempty"`
}

// failProfileKind runs the failure workload on an instrumented build and
// extracts the failure-run profile. A run that did not fail (or errored)
// is rejected, not fatal — concurrency benchmarks fail probabilistically.
// A certified recording of the build stands in for the run.
func failProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P failProfileParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, false, err
	}
	k := runKey{app: a, fail: true, build: inst, lbrSize: P.LBRSize, driver: true}
	prof, err := failureProfileOf(k, TrialSeed(P.Seed, stream, tc.Index), tc)
	if err != nil {
		return vm.Profile{}, false, nil
	}
	return prof, true, nil
}

// succProfileParams parameterizes one success-run capture trial.
type succProfileParams struct {
	App     string       `json:"app"`
	Build   core.Options `json:"build"`
	Seed    int64        `json:"seed"`
	LBRSize int          `json:"lbrSize,omitempty"`
	// Strict makes a run error abort the collection (the Table 6 success
	// path); tolerant mode rejects instead (the Table 8 robustness path).
	Strict bool `json:"strict,omitempty"`
}

// succProfileKind runs the success workload and extracts the comparable
// success profile, falling back to the same-site failure snapshot for
// unconditional sites. A certified recording of the build stands in for
// the run; it shares its key with the build's mean-cycles trials.
func succProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P succProfileParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, false, err
	}
	k := runKey{app: a, build: inst, lbrSize: P.LBRSize, driver: true}
	r, err := tc.profiles(k, TrialSeed(P.Seed, stream, tc.Index))
	if err != nil {
		if P.Strict {
			return vm.Profile{}, false, err
		}
		return vm.Profile{}, false, nil
	}
	// Unconditional site: the same-site snapshot from a successful run is
	// the comparable success profile.
	prof := r.succ
	if prof == nil {
		prof = r.fail
	}
	if r.failed || prof == nil {
		return vm.Profile{}, false, nil
	}
	return *prof, true, nil
}

// cbiRunParams parameterizes one sampled CBI run.
type cbiRunParams struct {
	App      string  `json:"app"`
	WantFail bool    `json:"wantFail"`
	Rate     float64 `json:"rate"`
	Seed     int64   `json:"seed"`
	// Active, when non-nil, restricts sampling to the named branches (the
	// CBI-adaptive search); nil instruments every branch. A pointer, so an
	// empty set still restricts, and an unrestricted run's params — and
	// with them its artifact key — carry no extra field.
	Active *[]string `json:"active,omitempty"`
}

// cbiRunKind executes one CBI-instrumented run on the uninstrumented
// program and returns its sampled predicate observations. A certified
// recording of the workload stands in for the run: cbi.ReplayRun samples
// the recorded branch-site stream instead, with the same restriction.
func cbiRunKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P cbiRunParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	k := runKey{app: a, fail: P.WantFail}
	seed := TrialSeed(P.Seed, stream, tc.Index)
	var active map[string]bool
	if P.Active != nil {
		active = make(map[string]bool, len(*P.Active))
		for _, name := range *P.Active {
			active[name] = true
		}
	}
	if rec := tc.derived(k); rec != nil {
		ro, cycles := cbi.ReplayRun(P.Rate, seed+31337, active, a.Program(), rec.sites)
		chargeDerived(tc.Sink, rec.cycles+cycles)
		if rec.failed != P.WantFail {
			return cbi.RunObs{}, false, nil
		}
		ro.Failed = P.WantFail
		return ro, true, nil
	}
	m, err := k.machine(seed, tc.Sink, tc.Faults)
	if err != nil {
		return cbi.RunObs{}, false, err
	}
	o := cbi.NewObserver(P.Rate, seed+31337)
	if active != nil {
		o.Restrict(active)
	}
	o.Attach(m)
	res, err := m.Run()
	if err != nil {
		return cbi.RunObs{}, false, err
	}
	if k.workload().FailedRun(res) != P.WantFail {
		return cbi.RunObs{}, false, nil
	}
	return o.Finish(P.WantFail), true, nil
}

// meanCyclesParams parameterizes one overhead-measurement run.
type meanCyclesParams struct {
	App string `json:"app"`
	// Build selects the instrumented variant; nil runs the plain program
	// (the overhead baseline and the CBI column).
	Build   *core.Options `json:"build,omitempty"`
	CBIHook bool          `json:"cbiHook,omitempty"`
	Rate    float64       `json:"rate,omitempty"`
	Seed    int64         `json:"seed"`
	LBRSize int           `json:"lbrSize,omitempty"`
}

// meanCyclesKind runs the success workload once and returns its cycle
// count. Errors are hard (Map semantics: overhead averages index results
// positionally). A certified recording stands in for the run: its cycles,
// plus the CBI hook's replayed sampling cost when the hook is on.
func meanCyclesKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P meanCyclesParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	k := runKey{app: a, lbrSize: P.LBRSize, driver: true}
	if P.Build != nil {
		if k.build, err = cachedBuild(a, *P.Build); err != nil {
			return nil, false, err
		}
	}
	seed := TrialSeed(P.Seed, stream, tc.Index)
	// Recordings keep the site stream of the plain program only, so a
	// hooked instrumented build always runs.
	if !P.CBIHook || k.build == nil {
		if rec := tc.derived(k); rec != nil {
			cycles := rec.cycles
			if P.CBIHook {
				_, sampling := cbi.ReplayRun(P.Rate, seed+777, nil, a.Program(), rec.sites)
				cycles += sampling
			}
			chargeDerived(tc.Sink, cycles)
			return cycles, true, nil
		}
	}
	m, err := k.machine(seed, tc.Sink, tc.Faults)
	if err != nil {
		return uint64(0), false, err
	}
	if P.CBIHook {
		cbi.NewObserver(P.Rate, seed+777).Attach(m)
	}
	res, err := m.Run()
	if err != nil {
		return uint64(0), false, err
	}
	return res.Cycles, true, nil
}

// concProfileParams parameterizes one LCR-instrumented concurrency trial.
type concProfileParams struct {
	App      string        `json:"app"`
	Build    core.Options  `json:"build"`
	Conf     pmu.LCRConfig `json:"conf"`
	WantFail bool          `json:"wantFail"`
	Seed     int64         `json:"seed"`
	LCRSize  int           `json:"lcrSize,omitempty"`
}

// concProfileKind runs one interleaving trial under an LCR configuration
// and extracts the requested profile. A run with the wrong outcome is
// rejected; a VM error is fatal.
func concProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	var P concProfileParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	a, err := kindApp(P.App)
	if err != nil {
		return nil, false, err
	}
	inst, err := cachedBuild(a, P.Build)
	if err != nil {
		return nil, false, err
	}
	w := a.Fail
	if !P.WantFail {
		w = a.Succeed
	}
	res, err := runConc(a, inst, w, TrialSeed(P.Seed, stream, tc.Index), P.Conf, Config{LCRSize: P.LCRSize}, tc)
	if err != nil {
		return vm.Profile{}, false, err
	}
	if w.FailedRun(res) != P.WantFail {
		return vm.Profile{}, false, nil
	}
	var prof vm.Profile
	var ok bool
	if P.WantFail {
		prof, ok = core.FailureRunProfile(res)
	} else {
		if prof, ok = core.SuccessRunProfile(res); !ok {
			// Unconditional site: use the same-site snapshot.
			prof, ok = core.FailureRunProfile(res)
		}
	}
	return prof, ok, nil
}
