// Package cbi reimplements the sampling-based cooperative-bug-isolation
// baseline the paper compares against (CBI; Liblit et al., PLDI '03/'05).
//
// CBI instruments every source-level branch with a pair of predicates
// ("branch taken", "branch not taken"), evaluates them at randomly sampled
// executions (default 1 out of 100), and statistically ranks predicates by
// how strongly they correlate with failure over many runs. The paper's
// experiments use branch predicates only, 1/100 sampling, and 1000 success
// plus 1000 failure runs (§7.2); LBRA reaches its verdict from 10+10.
//
// The instrumentation attaches to the VM as a branch hook and charges the
// fast-path/slow-path cycle costs every instrumented site pays, which is
// how the baseline's run-time overhead (Table 6's CBI column, avg ~15%)
// is reproduced.
package cbi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"stmdiag/internal/isa"
	"stmdiag/internal/obs"
	"stmdiag/internal/stats"
	"stmdiag/internal/vm"
)

// DefaultRate is CBI's default sampling rate, 1/100.
const DefaultRate = 0.01

// Pred identifies one branch predicate: a source branch and an outcome.
type Pred struct {
	// Branch is the source-branch name.
	Branch string
	// Edge is the outcome the predicate asserts.
	Edge isa.BranchEdge
}

// String renders the predicate.
func (p Pred) String() string { return p.Branch + "=" + p.Edge.String() }

// MarshalText encodes the predicate as "branch=edgeNumber" so RunObs maps
// survive a JSON round trip (the harness serializes trial results across
// process boundaries and into the durable artifact store). The numeric edge
// keeps the encoding unambiguous and cheap to parse.
func (p Pred) MarshalText() ([]byte, error) {
	return []byte(p.Branch + "=" + strconv.Itoa(int(p.Edge))), nil
}

// UnmarshalText parses the MarshalText encoding. The edge is taken from the
// last '=' so branch names containing '=' round-trip too.
func (p *Pred) UnmarshalText(b []byte) error {
	i := strings.LastIndexByte(string(b), '=')
	if i < 0 {
		return fmt.Errorf("cbi: predicate %q missing '='", b)
	}
	n, err := strconv.Atoi(string(b[i+1:]))
	if err != nil {
		return fmt.Errorf("cbi: predicate %q edge: %v", b, err)
	}
	p.Branch = string(b[:i])
	p.Edge = isa.BranchEdge(n)
	return nil
}

// RunObs is one run's sampled observations.
type RunObs struct {
	// Failed reports whether the run failed.
	Failed bool
	// Observed marks predicates whose branch was sampled at least once.
	Observed map[Pred]bool
	// True marks predicates sampled with their asserted outcome at least
	// once.
	True map[Pred]bool
}

// Observer instruments a machine with sampled branch-predicate counters.
// Attach with Attach before vm.Machine.Run; read the run's observations
// with Finish.
type Observer struct {
	rate    float64
	rng     *rand.Rand
	obs     RunObs
	active  map[string]bool // nil = every branch instrumented
	sampled *obs.Counter    // slow-path samples fired, process-wide
}

// NewObserver builds an observer with the given sampling rate and seed.
// The seed must differ from the scheduler seed to avoid correlated
// sampling.
func NewObserver(rate float64, seed int64) *Observer {
	reg := obs.Default()
	reg.Counter("cbi.observers").Inc()
	return &Observer{
		rate: rate,
		rng:  rand.New(rand.NewSource(seed)),
		obs: RunObs{
			Observed: make(map[Pred]bool),
			True:     make(map[Pred]bool),
		},
		sampled: reg.Counter("cbi.predicates.sampled"),
	}
}

// Restrict limits instrumentation to the named branches — the adaptive
// strategy's lever (Arumuga Nainar & Liblit, ICSE '10, discussed in paper
// §8): uninstrumented sites cost nothing and observe nothing.
func (o *Observer) Restrict(active map[string]bool) { o.active = active }

// Attach installs the instrumentation hook on the machine. It runs at the
// source-branch sites only; of those, the conditional jumps are the
// instrumented predicates (the inserted fall-through jumps are not).
func (o *Observer) Attach(m *vm.Machine) {
	prog := m.Prog()
	m.SetBranchHook(func(m *vm.Machine, t *vm.Thread, in *isa.Instr) {
		if in.Op.IsCond() {
			m.AddCycles(o.Visit(prog, in.BranchID, outcome(t, in)))
		}
	})
}

// Visit is the sampling decision at one executed conditional branch site:
// every instrumented site pays the fast-path check, and a firing sample
// pays the slow path and records both predicates of the branch. It returns
// the cycles the site charges. The live hook and Replay both call it, so a
// replayed run draws the sampler's RNG exactly as the live run does.
func (o *Observer) Visit(prog *isa.Program, branchID int, outcome isa.BranchEdge) uint64 {
	if o.active != nil && !o.active[prog.BranchName(branchID)] {
		return 0
	}
	if o.rng.Float64() >= o.rate {
		return vm.CostSampleCheck
	}
	o.sampled.Inc()
	name := prog.BranchName(branchID)
	for _, e := range []isa.BranchEdge{isa.EdgeFalse, isa.EdgeTrue} {
		o.obs.Observed[Pred{name, e}] = true
	}
	o.obs.True[Pred{name, outcome}] = true
	return vm.CostSampleCheck + vm.CostSampleSlow
}

// Site is one executed conditional branch site of a recorded run: the
// branch and the outcome it took, in a compact form.
type Site struct {
	Branch  int32
	Outcome isa.BranchEdge
}

// Record installs a branch hook that appends every executed conditional
// branch site to *sites, in execution order — the stream Replay samples.
// It charges no cycles, so the run is the uninstrumented one.
func Record(m *vm.Machine, sites *[]Site) {
	m.SetBranchHook(func(m *vm.Machine, t *vm.Thread, in *isa.Instr) {
		if in.Op.IsCond() {
			*sites = append(*sites, Site{int32(in.BranchID), outcome(t, in)})
		}
	})
}

// Replay visits a recorded site stream of prog in order, as the live hook
// would have during that run, and returns the cycles the sampling charged.
func (o *Observer) Replay(prog *isa.Program, sites []Site) uint64 {
	var cycles uint64
	for _, s := range sites {
		cycles += o.Visit(prog, int(s.Branch), s.Outcome)
	}
	return cycles
}

// outcome is the edge a conditional jump takes under the thread's flags.
func outcome(t *vm.Thread, in *isa.Instr) isa.BranchEdge {
	if vm.CondTaken(in.Op, t.Flags) {
		return in.Edge
	}
	return in.Edge.Opposite()
}

// Finish returns the observations, labeling the run.
func (o *Observer) Finish(failed bool) RunObs {
	o.obs.Failed = failed
	return o.obs
}

// Score is one predicate's CBI statistics.
type Score struct {
	// Pred is the predicate.
	Pred Pred
	// F and S count failing/successful runs where the predicate was
	// sampled true; Fobs and Sobs count runs where it was observed at all.
	F, S, Fobs, Sobs int
	// Failure is F/(F+S); Context is Fobs/(Fobs+Sobs).
	Failure, Context float64
	// Increase is Failure - Context, CBI's core signal.
	Increase float64
	// Importance is the harmonic mean of Increase and a normalized
	// log-recall term, CBI's ranking metric.
	Importance float64
}

// Rank computes CBI scores over a set of runs, best predictor first.
func Rank(runs []RunObs) []Score {
	totalFail := 0
	for _, r := range runs {
		if r.Failed {
			totalFail++
		}
	}
	type cell struct{ f, s, fobs, sobs int }
	counts := make(map[Pred]*cell)
	get := func(p Pred) *cell {
		c := counts[p]
		if c == nil {
			c = &cell{}
			counts[p] = c
		}
		return c
	}
	for _, r := range runs {
		for p := range r.Observed {
			c := get(p)
			if r.Failed {
				c.fobs++
			} else {
				c.sobs++
			}
		}
		for p := range r.True {
			c := get(p)
			if r.Failed {
				c.f++
			} else {
				c.s++
			}
		}
	}
	out := make([]Score, 0, len(counts))
	for p, c := range counts {
		sc := Score{Pred: p, F: c.f, S: c.s, Fobs: c.fobs, Sobs: c.sobs}
		if c.f+c.s > 0 {
			sc.Failure = float64(c.f) / float64(c.f+c.s)
		}
		if c.fobs+c.sobs > 0 {
			sc.Context = float64(c.fobs) / float64(c.fobs+c.sobs)
		}
		sc.Increase = sc.Failure - sc.Context
		if sc.Increase > 0 && c.f > 0 && totalFail > 1 {
			logRecall := math.Log(float64(c.f)+1) / math.Log(float64(totalFail)+1)
			sc.Importance = stats.HarmonicMean(sc.Increase, logRecall)
		}
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Importance != b.Importance {
			return a.Importance > b.Importance
		}
		if a.Increase != b.Increase {
			return a.Increase > b.Increase
		}
		if a.F != b.F {
			return a.F > b.F
		}
		return a.Pred.String() < b.Pred.String()
	})
	return out
}

// RankOf returns the 1-based rank of the first predicate with a positive
// importance satisfying match, or 0 if none.
func RankOf(scores []Score, match func(Pred) bool) int {
	for i, s := range scores {
		if s.Importance <= 0 {
			break // past the useful predictors
		}
		if match(s.Pred) {
			return i + 1
		}
	}
	return 0
}
