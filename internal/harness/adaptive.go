package harness

import (
	"fmt"
	"sort"

	"stmdiag/internal/apps"
	"stmdiag/internal/cbi"
	"stmdiag/internal/cfg"
	"stmdiag/internal/isa"
)

// AdaptiveResult summarizes one CBI-adaptive diagnosis (the iterative
// variant discussed in paper §8): instead of sampling every predicate from
// the start, instrumentation begins near the failure site and expands
// backward through the CFG between iterations until a failure predictor
// emerges.
type AdaptiveResult struct {
	// App is the benchmark.
	App *apps.App
	// Found reports whether the root-cause predicate was identified.
	Found bool
	// Iterations is how many instrument-run-analyze rounds ran.
	Iterations int
	// RunsUsed counts all runs across iterations.
	RunsUsed int
	// EvaluatedFraction is the share of the program's branch predicates
	// that ended up instrumented (the paper quotes ~40% for
	// CBI-adaptive without control-flow knowledge).
	EvaluatedFraction float64
}

// branchLayers orders the program's source branches by backward CFG
// distance (in branch hops) from the failure location, the expansion order
// the adaptive strategy uses.
func branchLayers(p *isa.Program, failPC int) [][]string {
	g := cfg.Build(p)
	dist := map[int]int{failPC: 0}
	frontier := []int{failPC}
	for len(frontier) > 0 {
		var next []int
		for _, pc := range frontier {
			for _, pr := range g.PredsOf(pc) {
				if _, seen := dist[pr]; seen {
					continue
				}
				d := dist[pc]
				if p.Instrs[pr].Op.IsCond() {
					d++
				}
				dist[pr] = d
				next = append(next, pr)
			}
		}
		frontier = next
	}
	layerOf := map[string]int{}
	for pc, d := range dist {
		in := &p.Instrs[pc]
		if !in.Op.IsCond() || in.BranchID == isa.NoBranch {
			continue
		}
		name := p.BranchName(in.BranchID)
		if cur, ok := layerOf[name]; !ok || d < cur {
			layerOf[name] = d
		}
	}
	maxLayer := 0
	for _, d := range layerOf {
		if d > maxLayer {
			maxLayer = d
		}
	}
	layers := make([][]string, maxLayer+2)
	for name, d := range layerOf {
		layers[d] = append(layers[d], name)
	}
	// Branches unreachable backward from the failure site go last.
	for _, b := range p.Branches {
		if _, ok := layerOf[b.Name]; !ok {
			layers[maxLayer+1] = append(layers[maxLayer+1], b.Name)
		}
	}
	for _, l := range layers {
		sort.Strings(l)
	}
	return layers
}

// RunAdaptive drives the CBI-adaptive loop on a sequential benchmark:
// each iteration instruments the branches discovered so far (at full
// per-site cost but the given sampling rate), collects runsPerIter failing
// and succeeding runs, and stops when the root-cause predicate carries
// positive Increase — or when every layer is instrumented and maxIters is
// exhausted.
func RunAdaptive(a *apps.App, rate float64, runsPerIter, maxIters int, conf Config) (*AdaptiveResult, error) {
	conf = conf.withDefaults()
	pool := conf.pool()
	p := a.Program()
	failPC := a.FaultPC()
	if failPC < 0 {
		sites := cfg.LogSites(p)
		if len(sites) == 0 {
			return nil, fmt.Errorf("harness: %s has no failure location for adaptive CBI", a.Name)
		}
		failPC = sites[len(sites)-1]
	}
	layers := branchLayers(p, failPC)
	// The instrumented branches; never nil, since an empty set (the first
	// layer is often empty) must restrict sampling to nothing.
	active := []string{}
	res := &AdaptiveResult{App: a}
	var runs []cbi.RunObs
	nextLayer := 0

	// collect fans one iteration's runs of one class out through the pool
	// as cbi-run trials restricted to the active branches — the run
	// Table 6's CBI column samples, so a session's recording serves both.
	// A shortfall is tolerated: the ranking just sees fewer observations,
	// as in the paper's budgeted setting.
	collect := func(wantFail bool, label string) ([]cbi.RunObs, error) {
		out, _, err := CollectKind[cbi.RunObs](pool, runsPerIter*6, runsPerIter, a.Name+"/"+label, "cbi-run",
			cbiRunParams{App: a.Name, WantFail: wantFail, Rate: rate, Seed: conf.Seed, Active: &active})
		return out, err
	}

	for res.Iterations < maxIters {
		res.Iterations++
		// Expand by one layer per iteration (all layers consumed -> keep
		// sampling with the full set).
		if nextLayer < len(layers) {
			active = append(active, layers[nextLayer]...)
			nextLayer++
		}
		failObs, err := collect(true, fmt.Sprintf("adaptive-fail-iter%d", res.Iterations))
		if err != nil {
			return nil, err
		}
		succObs, err := collect(false, fmt.Sprintf("adaptive-succ-iter%d", res.Iterations))
		if err != nil {
			return nil, err
		}
		runs = append(runs, failObs...)
		runs = append(runs, succObs...)
		res.RunsUsed += 2 * runsPerIter
		scores := cbi.Rank(runs)
		rank := cbi.RankOf(scores, func(pr cbi.Pred) bool {
			return pr.Branch == a.RootBranch || (a.RelatedBranch != "" && pr.Branch == a.RelatedBranch)
		})
		if rank >= 1 && rank <= 3 {
			res.Found = true
			break
		}
	}
	if len(p.Branches) > 0 {
		res.EvaluatedFraction = float64(len(active)) / float64(len(p.Branches))
	}
	return res, nil
}
