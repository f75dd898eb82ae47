package harness

import (
	"bytes"
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

// session is one executor session's state: the runs its trials recorded
// (record.go), the params its kinds last decoded, and the storage its VM
// runs leave for the next (vm.Spare). A nil session keeps nothing.
type session struct {
	recs   recordings
	params paramsCache
	vms    vm.Spare
}

func (s *session) recordings() *recordings {
	if s == nil {
		return nil
	}
	return &s.recs
}

func (s *session) spare() *vm.Spare {
	if s == nil {
		return nil
	}
	return &s.vms
}

// kindParams is a trial kind's params type; resolve names the run its
// value describes, with app and build resolved.
type kindParams interface {
	resolve() (runKey, error)
}

// resolved is one params value, decoded, and the run it names.
type resolved[P kindParams] struct {
	P P
	k runKey
}

// paramsCache holds one executor session's last resolved params of each
// kind, keyed by their raw bytes. A fan-out's trials all carry one params
// value, so they decode and resolve it once; one entry per kind bounds
// the cache. The zero value is ready.
type paramsCache struct {
	mu   sync.Mutex
	last map[string]cachedParams
}

type cachedParams struct {
	raw json.RawMessage
	val any // *resolved[P] of the kind's P
}

// sessionParams decodes raw into a P and resolves it, or returns the
// session's last result for kind when raw has its bytes: decoding and
// resolving are pure functions of the bytes, so the kept result is the
// one a fresh decode would give. A failure is not kept.
func sessionParams[P kindParams](s *session, kind string, raw json.RawMessage) (*resolved[P], error) {
	var c *paramsCache
	if s != nil {
		c = &s.params
		c.mu.Lock()
		e, ok := c.last[kind]
		c.mu.Unlock()
		if ok && bytes.Equal(e.raw, raw) {
			return e.val.(*resolved[P]), nil
		}
	}
	r := &resolved[P]{}
	if err := json.Unmarshal(raw, &r.P); err != nil {
		return nil, err
	}
	var err error
	if r.k, err = r.P.resolve(); err != nil {
		return nil, err
	}
	if c != nil {
		c.mu.Lock()
		if c.last == nil {
			c.last = make(map[string]cachedParams)
		}
		c.last[kind] = cachedParams{raw, r}
		c.mu.Unlock()
	}
	return r, nil
}

// profileKey names the driver-serviced run of app's build.
func profileKey(app string, build core.Options, lbrSize int) (runKey, error) {
	a, err := kindApp(app)
	if err != nil {
		return runKey{}, err
	}
	inst, err := cachedBuild(a, build)
	if err != nil {
		return runKey{}, err
	}
	return runKey{app: a, build: inst, lbrSize: lbrSize, driver: true}, nil
}

// failProfileParams parameterizes one failure-run capture trial.
type failProfileParams struct {
	App     string       `json:"app"`
	Build   core.Options `json:"build"`
	Seed    int64        `json:"seed"`
	LBRSize int          `json:"lbrSize,omitempty"`
}

func (p failProfileParams) resolve() (runKey, error) {
	k, err := profileKey(p.App, p.Build, p.LBRSize)
	k.fail = true
	return k, err
}

// failProfileKind runs the failure workload on an instrumented build and
// extracts the failure-run profile. A run that did not fail (or errored)
// is rejected, not fatal — concurrency benchmarks fail probabilistically.
// A certified recording of the build stands in for the run.
func failProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	pt, err := sessionParams[failProfileParams](tc.sess, "fail-profile", raw)
	if err != nil {
		return nil, false, err
	}
	prof, err := failureProfileOf(pt.k, TrialSeed(pt.P.Seed, stream, tc.Index), tc)
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

func (p succProfileParams) resolve() (runKey, error) {
	return profileKey(p.App, p.Build, p.LBRSize)
}

// succProfileKind runs the success workload and extracts the comparable
// success profile, falling back to the same-site failure snapshot for
// unconditional sites. A certified recording of the build stands in for
// the run; it shares its key with the build's mean-cycles trials.
func succProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	pt, err := sessionParams[succProfileParams](tc.sess, "succ-profile", raw)
	if err != nil {
		return nil, false, err
	}
	r, err := tc.profiles(pt.k, TrialSeed(pt.P.Seed, stream, tc.Index))
	if err != nil {
		if pt.P.Strict {
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

func (p cbiRunParams) resolve() (runKey, error) {
	a, err := kindApp(p.App)
	return runKey{app: a, fail: p.WantFail}, err
}

// cbiRunKind executes one CBI-instrumented run on the uninstrumented
// program and returns its sampled predicate observations. A certified
// recording of the workload stands in for the run: cbi.ReplayRun samples
// the recorded branch-site stream instead, with the same restriction.
func cbiRunKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	ct, err := sessionParams[cbiRunParams](tc.sess, "cbi-run", raw)
	if err != nil {
		return nil, false, err
	}
	P, a, k := &ct.P, ct.k.app, ct.k
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
	m, err := k.machine(seed, tc)
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

func (p meanCyclesParams) resolve() (runKey, error) {
	a, err := kindApp(p.App)
	if err != nil {
		return runKey{}, err
	}
	k := runKey{app: a, lbrSize: p.LBRSize, driver: true}
	if p.Build != nil {
		k.build, err = cachedBuild(a, *p.Build)
	}
	return k, err
}

// meanCyclesKind runs the success workload once and returns its cycle
// count. Errors are hard (Map semantics: overhead averages index results
// positionally). A certified recording stands in for the run: its cycles,
// plus the CBI hook's replayed sampling cost when the hook is on.
func meanCyclesKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	mt, err := sessionParams[meanCyclesParams](tc.sess, "mean-cycles", raw)
	if err != nil {
		return nil, false, err
	}
	P, a, k := &mt.P, mt.k.app, mt.k
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
	m, err := k.machine(seed, tc)
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

// resolve names the app and build; runConc configures the run itself.
func (p concProfileParams) resolve() (runKey, error) {
	return profileKey(p.App, p.Build, 0)
}

// concProfileKind runs one interleaving trial under an LCR configuration
// and extracts the requested profile. A run with the wrong outcome is
// rejected; a VM error is fatal.
func concProfileKind(raw json.RawMessage, stream string, tc *Trial) (any, bool, error) {
	ct, err := sessionParams[concProfileParams](tc.sess, "conc-profile", raw)
	if err != nil {
		return nil, false, err
	}
	P, a, inst := &ct.P, ct.k.app, ct.k.build
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
