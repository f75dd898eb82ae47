package harness

import (
	"encoding/json"

	"stmdiag/internal/isa"
	"stmdiag/internal/pmu"
	"stmdiag/internal/synth"
	"stmdiag/internal/vm"
)

// CoverageResult is a THeME-style coverage measurement (Walcott-Justice et
// al., ISSTA '12 — paper §8): branch coverage recovered by periodically
// draining the LBR during a run. The paper's point is that this usage
// *requires* profiling throughout the execution, which is why THeME costs
// far more than LBRLOG's profile-only-at-failure design.
type CoverageResult struct {
	// CoveredEdges is how many distinct source-branch edges the periodic
	// samples recovered; ExecutedEdges is the ground truth.
	CoveredEdges, ExecutedEdges int
	// Coverage is CoveredEdges/ExecutedEdges.
	Coverage float64
	// Samples is how many LBR drains ran.
	Samples int
	// Overhead is the sampling cost relative to the unprofiled run.
	Overhead float64
}

type branchEdge struct {
	branch int
	edge   isa.BranchEdge
}

// edgesOf extracts the source-branch edges from a batch of LBR records.
func edgesOf(p *isa.Program, recs []pmu.BranchRecord, into map[branchEdge]bool) {
	for _, r := range recs {
		if r.From < 0 || r.From >= len(p.Instrs) {
			continue
		}
		in := &p.Instrs[r.From]
		if in.BranchID != isa.NoBranch {
			into[branchEdge{in.BranchID, in.Edge}] = true
		}
	}
}

// armLBRs enables recording with the paper's filter on every core.
func armLBRs(m *vm.Machine) error {
	for _, c := range m.Cores() {
		if err := c.LBR.WriteMSR(pmu.MSRLBRSelect, pmu.PaperLBRSelect); err != nil {
			return err
		}
		if err := c.LBR.WriteMSR(pmu.MSRDebugCtl, pmu.DebugCtlEnableLBR); err != nil {
			return err
		}
	}
	return nil
}

// RunCoverage measures branch coverage by draining the LBR every
// periodSteps retired instructions, THeME-style, and compares against the
// ground truth (every edge actually executed) and the unprofiled cost.
func RunCoverage(p *isa.Program, opts vm.Options, periodSteps int) (*CoverageResult, error) {
	// Ground truth and baseline cost.
	truth := map[branchEdge]bool{}
	mTruth, err := vm.New(p, opts)
	if err != nil {
		return nil, err
	}
	mTruth.SetBranchHook(func(m *vm.Machine, t *vm.Thread, in *isa.Instr) {
		if in.Op.IsCond() {
			edge := in.Edge
			if !vm.CondTaken(in.Op, t.Flags) {
				edge = edge.Opposite()
			}
			truth[branchEdge{in.BranchID, edge}] = true
		} else if in.Op == isa.OpJmp {
			truth[branchEdge{in.BranchID, in.Edge}] = true
		}
	})
	baseRes, err := mTruth.Run()
	if err != nil {
		return nil, err
	}

	// The sampled run: drain every core's LBR each period, paying the
	// profile cost each time.
	covered := map[branchEdge]bool{}
	res := &CoverageResult{}
	m, err := vm.New(p, opts)
	if err != nil {
		return nil, err
	}
	if err := armLBRs(m); err != nil {
		return nil, err
	}
	steps := 0
	m.SetStepHook(func(mm *vm.Machine, t *vm.Thread, in *isa.Instr) {
		steps++
		if steps%periodSteps != 0 {
			return
		}
		res.Samples++
		mm.AddCycles(vm.CostProfile)
		for _, c := range mm.Cores() {
			edgesOf(p, c.LBR.Latest(), covered)
		}
	})
	sampledRes, err := m.Run()
	if err != nil {
		return nil, err
	}
	// Final drain at exit, as THeME does.
	for _, c := range m.Cores() {
		edgesOf(p, c.LBR.Latest(), covered)
	}

	res.ExecutedEdges = len(truth)
	for e := range covered {
		if truth[e] {
			res.CoveredEdges++
		}
	}
	if res.ExecutedEdges > 0 {
		res.Coverage = float64(res.CoveredEdges) / float64(res.ExecutedEdges)
	}
	res.Overhead = overhead(float64(baseRes.Cycles), float64(sampledRes.Cycles))
	return res, nil
}

// CoverageTarget names the program a coverage sweep measures: one
// benchmark's success workload, or (Synth non-nil) a generated synthetic
// program. Seed is the run's scheduler seed.
type CoverageTarget struct {
	App   string        `json:"app,omitempty"`
	Synth *synth.Config `json:"synth,omitempty"`
	Seed  int64         `json:"seed"`
}

// Program builds the target's program and the VM options it runs with.
func (t CoverageTarget) Program() (*isa.Program, vm.Options, error) {
	if t.Synth != nil {
		p, err := synth.Generate("synth", *t.Synth)
		return p, vm.Options{Seed: t.Seed}, err
	}
	a, err := kindApp(t.App)
	if err != nil {
		return nil, vm.Options{}, err
	}
	return a.Program(), a.Succeed.VMOptions(t.Seed), nil
}

// coverageParams parameterizes a coverage sweep: trial i measures the
// target at Periods[i].
type coverageParams struct {
	CoverageTarget
	Periods []int `json:"periods"`
}

// coverageRunKind measures one sampling period of a sweep.
func coverageRunKind(raw json.RawMessage, _ string, tc *Trial) (any, bool, error) {
	var P coverageParams
	if err := json.Unmarshal(raw, &P); err != nil {
		return nil, false, err
	}
	p, opts, err := P.Program()
	if err != nil {
		return nil, false, err
	}
	opts.Obs, opts.Faults = tc.Sink, tc.Faults
	res, err := RunCoverage(p, opts, P.Periods[tc.Index])
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// CoverageSweep measures the target's coverage at each sampling period,
// fanning the independent measurements out through the trial pool. Results
// come back in period order regardless of the worker count.
func CoverageSweep(t CoverageTarget, periods []int, pool *Pool) ([]*CoverageResult, error) {
	name := t.App
	if t.Synth != nil {
		name = "synth"
	}
	return MapKind[*CoverageResult](pool, len(periods), name+"/coverage", "coverage-run",
		coverageParams{CoverageTarget: t, Periods: periods})
}
