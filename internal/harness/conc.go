package harness

import (
	"fmt"
	"sort"

	"stmdiag/internal/apps"
	"stmdiag/internal/core"
	"stmdiag/internal/kernel"
	"stmdiag/internal/obs"
	"stmdiag/internal/pmu"
	"stmdiag/internal/vm"
)

// ConcResult is one concurrency benchmark's Table 7 row.
type ConcResult struct {
	// App is the benchmark.
	App *apps.App
	// RankConf1 and RankConf2 are the LCR entry positions (1 = latest) of
	// the failure-predicting event in the failure-run profile under the
	// space-saving and space-consuming configurations; 0 means the event
	// was missed (or does not exist).
	RankConf1, RankConf2 int
	// LCRARank is the FPE's position in LCRA's predictor ranking (Conf2);
	// 0 means missed.
	LCRARank int
	// FailRate is the observed failure probability of the failure
	// workload, a sanity signal for the interleaving engineering.
	FailRate float64
	// Metrics is this row's telemetry delta, nil without a metrics sink.
	Metrics *obs.Snapshot
}

// fpeMatch builds an event predicate from an FPE description.
func fpeMatch(want *apps.FPEWant) func(core.Event) bool {
	return func(e core.Event) bool {
		return e.Kind == core.EventCoherence &&
			e.Access == want.Kind && e.State == want.State &&
			e.File == want.File && e.Line == want.Line
	}
}

// coherenceRank returns the 1-based depth of the first event matching want
// in the profile, or 0.
func coherenceRank(p *core.Instrumented, prof vm.Profile, want *apps.FPEWant) int {
	if want == nil {
		return 0
	}
	match := fpeMatch(want)
	for i, e := range core.CoherenceEvents(p.Prog, prof) {
		if match(e) {
			return i + 1
		}
	}
	return 0
}

// runConc executes one LCR-instrumented run in one trial attempt's context.
func runConc(a *apps.App, inst *core.Instrumented, w apps.Workload, seed int64, conf pmu.LCRConfig, cfg Config, tc *Trial) (*vm.Result, error) {
	opts := w.VMOptions(seed)
	opts.Driver = kernel.Driver{}
	opts.SegvIoctls = inst.SegvIoctls
	opts.LCRConfig = conf
	opts.LCRSize = cfg.LCRSize
	opts.Obs = tc.Sink
	opts.Faults = tc.Faults
	opts.Spare = tc.sess.spare()
	return vm.Run(inst.Prog, opts)
}

// collectConc gathers n failing (or succeeding) profiles under a config,
// fanning the runs out through the trial pool as portable "conc-profile"
// trials. label names the seed stream (scoped by the app name) so every
// call site draws decorrelated seeds.
func collectConc(a *apps.App, build core.Options, conf pmu.LCRConfig, wantFail bool, n int, cfg Config, pool *Pool, label string) ([]vm.Profile, int, error) {
	stream := a.Name + "/" + label
	out, attempts, err := CollectKind[vm.Profile](pool, cfg.MaxAttempts, n, stream, "conc-profile",
		concProfileParams{App: a.Name, Build: build, Conf: conf, WantFail: wantFail,
			Seed: cfg.Seed, LCRSize: cfg.LCRSize})
	if err != nil {
		return nil, attempts, err
	}
	if len(out) < n {
		return nil, attempts, fmt.Errorf("harness: %s: only %d/%d %v-profiles in %d attempts",
			a.Name, len(out), n, wantFail, attempts)
	}
	return out, attempts, nil
}

// modalRank returns the most common non-negative value; ties break low.
func modalRank(ranks []int) int {
	counts := map[int]int{}
	for _, r := range ranks {
		counts[r]++
	}
	best, bestN := 0, -1
	var keys []int
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

// RunConcurrent reproduces one Table 7 row.
func RunConcurrent(a *apps.App, cfg Config) (*ConcResult, error) {
	cfg = cfg.withDefaults()
	pool := cfg.pool()
	res := &ConcResult{App: a}
	rowStart := beginRow(cfg, a.Name, "concurrent")

	optsLCR := core.Options{LCR: true, Toggling: true}
	inst, err := cachedBuild(a, optsLCR)
	if err != nil {
		return nil, err
	}

	// LCRLOG ranks: modal FPE depth across a handful of failing runs.
	endCapture := beginPhase(cfg, a.Name, phaseCapture)
	want1 := a.FPEConf1
	if want1 == nil {
		want1 = a.FPE
	}
	if a.FPE != nil || want1 != nil {
		// For read-too-early order violations the Conf1 signal is the
		// shared load that success runs record and failure runs miss;
		// measure its position where it exists (paper §4.2.2).
		profs1, _, err := collectConc(a, optsLCR, pmu.ConfSpaceSaving, !a.Conf1InSuccess, 5, cfg, pool, "conf1")
		if err != nil {
			return nil, err
		}
		var ranks []int
		for _, pr := range profs1 {
			ranks = append(ranks, coherenceRank(inst, pr, want1))
		}
		res.RankConf1 = modalRank(ranks)
	}
	profs2, attempts, err := collectConc(a, optsLCR, pmu.ConfSpaceConsuming, true, cfg.FailRuns, cfg, pool, "conf2-fail")
	if err != nil {
		return nil, err
	}
	res.FailRate = float64(cfg.FailRuns) / float64(attempts)
	if a.FPE != nil {
		var ranks []int
		for _, pr := range profs2 {
			ranks = append(ranks, coherenceRank(inst, pr, a.FPE))
		}
		res.RankConf2 = modalRank(ranks)
	}

	// LCRA (Conf2): reactive success sites paired with the failure site.
	failPC, err := origFailurePC(a, inst, profs2[0])
	if err != nil {
		return nil, err
	}
	optsReactive := core.Options{LCR: true, Toggling: true,
		Scheme: core.SchemeReactive, FailurePCs: []int{failPC}}
	reactive, err := cachedBuild(a, optsReactive)
	if err != nil {
		return nil, err
	}
	succProfs, _, err := collectConc(a, optsReactive, pmu.ConfSpaceConsuming, false, cfg.SuccRuns, cfg, pool, "conf2-succ")
	if err != nil {
		return nil, err
	}
	endCapture()
	endRank := beginPhase(cfg, a.Name, phaseRank)
	var fail, succ []core.ProfiledRun
	for _, pr := range profs2 {
		fail = append(fail, core.ProfiledRun{Prog: inst.Prog, Profile: pr})
	}
	for _, pr := range succProfs {
		succ = append(succ, core.ProfiledRun{Prog: reactive.Prog, Profile: pr})
	}
	report, err := core.DiagnoseWith(core.ModeLCR, cfg.Ranker, fail, succ)
	if err != nil {
		return nil, err
	}
	if a.FPE != nil {
		res.LCRARank = report.RankOfCoherence(fpeMatch(a.FPE))
		// Only a high-confidence predictor counts, mirroring the paper's
		// "best failure predictor" requirement.
		if res.LCRARank > 0 {
			s := report.Ranking[res.LCRARank-1]
			if s.Score < 0.75 {
				res.LCRARank = 0
			}
		}
	}
	endRank()
	res.Metrics = endRow(cfg, rowStart)
	return res, nil
}
