package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"stmdiag/internal/core"
	"stmdiag/internal/kernel"
	"stmdiag/internal/pmu"
	"stmdiag/internal/synth"
	"stmdiag/internal/vm"
)

// Corpus geometry. Distances sweep the propagation knob across the
// 16-entry record depth: 2 and 8 sit comfortably inside the window, 14
// probes its edge (sequential roots still rank; concurrent roots are
// already evicted by the extra coherence traffic), and 20 pushes the root
// cause out of the ring for every class — the regime where any
// short-record ranker must degrade. 13 programs per (class × distance)
// cell puts the default corpus at 4×4×13 = 208 generated programs.
var corpusDistances = []int{2, 8, 14, 20}

// DefaultCorpusPerCell is the Table 9 per-cell program count.
const DefaultCorpusPerCell = 13

// corpusOutcome is one generated program's bake-off result: the manifest
// root cause's rank under each ranker (core.Rankers() order; 0 = missed).
type corpusOutcome struct {
	Diagnosed bool  `json:"diagnosed"`
	Ranks     []int `json:"ranks"`
}

// corpusProgram runs the full diagnosis loop over one generated buggy
// program: instrument, collect failure-run profiles, redeploy reactively,
// collect success-run profiles, then rank once per ranker. Every seed
// derives from the (class, distance, program) coordinates, never from
// worker identity, so Table 9 is byte-identical for any Jobs value. A
// program whose collection starves (the race never landing within
// MaxAttempts) counts as undiagnosed for every ranker — an honest,
// deterministic miss.
func corpusProgram(class synth.BugClass, dist, idx int, cfg Config, tc *Trial) (corpusOutcome, error) {
	stream := fmt.Sprintf("corpus/%s/d%d/p%d", class, dist, idx)
	miss := corpusOutcome{Ranks: make([]int, len(core.Rankers()))}

	bp, err := synth.GenerateBug(fmt.Sprintf("%s-d%d-p%d", class, dist, idx), synth.BugConfig{
		Seed:     TrialSeed(cfg.Seed, stream+"/gen", 0),
		Class:    class,
		Distance: dist,
	})
	if err != nil {
		return miss, err
	}
	mode := core.ModeLBR
	opts := core.Options{LBR: true, Toggling: true}
	if bp.Concurrent {
		mode = core.ModeLCR
		opts = core.Options{LCR: true, Toggling: true}
	}
	inst, err := core.EnhanceLogging(bp.Prog, opts)
	if err != nil {
		return miss, err
	}

	run := func(b *core.Instrumented, variant map[string]int64, seed int64) (*vm.Result, error) {
		globals := make(map[string]int64, len(variant)+1)
		for k, v := range variant {
			globals[k] = v
		}
		// The noise global steers the pad branches; deriving it from the
		// run seed varies control flow across runs of the same workload.
		globals[bp.NoiseGlobal] = int64(uint16(uint64(seed) >> 8))
		vopts := vm.Options{
			Seed:       seed,
			Globals:    globals,
			Driver:     kernel.Driver{},
			SegvIoctls: b.SegvIoctls,
		}
		if bp.Concurrent {
			vopts.LCRConfig = pmu.ConfSpaceConsuming
			vopts.LCRSize = cfg.LCRSize
		} else {
			vopts.LBRSize = cfg.LBRSize
		}
		if tc != nil {
			vopts.Obs = tc.Sink
			vopts.Faults = tc.Faults
		}
		return vm.Run(b.Prog, vopts)
	}

	var fail []core.ProfiledRun
	for att := 0; att < cfg.MaxAttempts && len(fail) < cfg.FailRuns; att++ {
		seed := TrialSeed(cfg.Seed, stream+"/fail", att)
		res, err := run(inst, bp.Fail[att%len(bp.Fail)], seed)
		if err != nil {
			return miss, err
		}
		if !res.Failed() {
			continue
		}
		if p, ok := core.FailureRunProfile(res); ok {
			fail = append(fail, core.ProfiledRun{Prog: inst.Prog, Profile: p})
		}
	}
	if len(fail) < cfg.FailRuns {
		return miss, nil
	}

	// Reactive redeployment: pair the failure site with a success site so
	// success runs carry a comparable profile (paper §5.2).
	ropts := opts
	ropts.Scheme = core.SchemeReactive
	ropts.FailurePCs = []int{bp.Manifest.FailPC}
	react, err := core.EnhanceLogging(bp.Prog, ropts)
	if err != nil {
		return miss, err
	}
	var succ []core.ProfiledRun
	for att := 0; att < cfg.MaxAttempts && len(succ) < cfg.SuccRuns; att++ {
		seed := TrialSeed(cfg.Seed, stream+"/succ", att)
		res, err := run(react, bp.Succeed[att%len(bp.Succeed)], seed)
		if err != nil {
			return miss, err
		}
		if res.Failed() {
			continue
		}
		p, ok := core.SuccessRunProfile(res)
		if !ok {
			p, ok = core.FailureRunProfile(res)
		}
		if ok {
			succ = append(succ, core.ProfiledRun{Prog: react.Prog, Profile: p})
		}
	}
	if len(succ) < cfg.SuccRuns {
		return miss, nil
	}

	out := corpusOutcome{Diagnosed: true, Ranks: make([]int, len(core.Rankers()))}
	man := bp.Manifest
	for i, ranker := range core.Rankers() {
		rep, err := core.DiagnoseWith(mode, ranker, fail, succ)
		if err != nil {
			return miss, err
		}
		if bp.Concurrent {
			out.Ranks[i] = rep.RankOfCoherence(func(e core.Event) bool {
				return e.Kind == core.EventCoherence &&
					e.Access == man.FPEKind && e.State == man.FPEState &&
					e.File == man.RootLoc.File && e.Line == man.RootLoc.Line
			})
		} else {
			out.Ranks[i] = rep.RankOfBranchEdge(man.RootBranch, man.BuggyEdge)
		}
	}
	return out, nil
}

// corpusParams parameterizes the Table 9 stream: trial i is program
// i%PerCell of cell i/PerCell, cells in (class × distance) row order; the
// rest are the Config fields corpusProgram reads.
type corpusParams struct {
	PerCell     int   `json:"perCell"`
	Seed        int64 `json:"seed"`
	FailRuns    int   `json:"failRuns"`
	SuccRuns    int   `json:"succRuns"`
	MaxAttempts int   `json:"maxAttempts"`
	LBRSize     int   `json:"lbrSize,omitempty"`
	LCRSize     int   `json:"lcrSize,omitempty"`
}

// corpusProgramKind runs one generated program of the corpus through
// corpusProgram. Every trial is accepted unless it errors (MapKind).
func corpusProgramKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P corpusParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	cell := tc.Index / P.PerCell
	cfg := Config{
		Seed: P.Seed, FailRuns: P.FailRuns, SuccRuns: P.SuccRuns,
		MaxAttempts: P.MaxAttempts, LBRSize: P.LBRSize, LCRSize: P.LCRSize,
	}
	out, err := corpusProgram(synth.BugClasses()[cell/len(corpusDistances)],
		corpusDistances[cell%len(corpusDistances)], tc.Index%P.PerCell, cfg, tc)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// corpusCell aggregates one (class × distance) cell.
type corpusCell struct {
	class      synth.BugClass
	dist       int
	programs   int
	diagnosed  int
	top1, top5 []int
}

// Table9 generates the bug corpus and runs the ranking bake-off: for every
// (class × distance) cell it drives PerCell generated programs through
// each ranker and reports how often the manifest root cause lands at rank
// 1 and within the top 5.
func Table9(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	perCell := cfg.CorpusPerCell
	if perCell <= 0 {
		perCell = DefaultCorpusPerCell
	}
	classes := synth.BugClasses()
	rankers := core.Rankers()
	cells := make([]corpusCell, 0, len(classes)*len(corpusDistances))
	for _, class := range classes {
		for _, d := range corpusDistances {
			cells = append(cells, corpusCell{
				class: class, dist: d, programs: perCell,
				top1: make([]int, len(rankers)),
				top5: make([]int, len(rankers)),
			})
		}
	}

	total := len(cells) * perCell
	outcomes, err := MapKind[corpusOutcome](cfg.pool(), total, "corpus/table9", "corpus-program", corpusParams{
		PerCell: perCell, Seed: cfg.Seed, FailRuns: cfg.FailRuns, SuccRuns: cfg.SuccRuns,
		MaxAttempts: cfg.MaxAttempts, LBRSize: cfg.LBRSize, LCRSize: cfg.LCRSize,
	})
	if err != nil {
		return "", err
	}
	for i, o := range outcomes {
		cell := &cells[i/perCell]
		if o.Diagnosed {
			cell.diagnosed++
		}
		for r, rank := range o.Ranks {
			if rank == 1 {
				cell.top1[r]++
			}
			if rank >= 1 && rank <= 5 {
				cell.top5[r]++
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 9: root-cause ranking over the generated bug corpus (%d programs)\n", total)
	fmt.Fprintf(&b, "%d programs per (class x distance) cell, %d+%d runs per program, record depth 16\n",
		perCell, cfg.FailRuns, cfg.SuccRuns)
	fmt.Fprintf(&b, "distance = basic blocks between root cause and failure site; top1/top5 count\n")
	fmt.Fprintf(&b, "programs whose ground-truth root cause ranked first / in the top five\n\n")
	fmt.Fprintf(&b, "%-10s %4s | %5s |", "class", "dist", "diag")
	for _, r := range rankers {
		fmt.Fprintf(&b, " %9s top1 top5 |", r)
	}
	b.WriteString("\n")
	for _, cell := range cells {
		fmt.Fprintf(&b, "%-10s %4d | %2d/%2d |", cell.class, cell.dist, cell.diagnosed, cell.programs)
		for r := range rankers {
			fmt.Fprintf(&b, " %9s %4d %4d |", "", cell.top1[r], cell.top5[r])
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for r, ranker := range rankers {
		t1, t5, diag := 0, 0, 0
		for _, cell := range cells {
			t1 += cell.top1[r]
			t5 += cell.top5[r]
			diag += cell.diagnosed
		}
		fmt.Fprintf(&b, "%-9s: top-1 %d/%d, top-5 %d/%d (%d diagnosed)\n",
			ranker, t1, total, t5, total, diag)
	}
	return b.String(), nil
}
