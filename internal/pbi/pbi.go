// Package pbi reimplements the PBI baseline (Arulraj, Chang, Jin, Lu,
// ASPLOS '13 — the paper's own predecessor and its Table 7 comparison
// point, §7.3): production-run concurrency-failure diagnosis via hardware
// performance counters.
//
// PBI configures the L1D coherence-event counters (paper Table 2) and uses
// interrupt-driven sampling: every sampling period, the interrupt handler
// attributes the counted event to the interrupted instruction, yielding
// (instruction, observed-state) predicates. Over many failing and
// successful runs, predicates that correlate with failure surface — the
// same failure-predicting events LCR records directly.
//
// The contrast the paper draws: PBI diagnoses all 11 concurrency failures
// but "needs the failures to occur hundreds to thousands of times", while
// LCRA reaches its verdict from 10, because the LCR deterministically
// holds the last events at the failure site instead of sampling the whole
// run.
package pbi

import (
	"fmt"
	"math"
	"sort"

	"stmdiag/internal/cache"
	"stmdiag/internal/rng"
	"stmdiag/internal/stats"
	"stmdiag/internal/vm"
)

// Site identifies a sampled instruction independent of the state it
// observed; it is the "predicate was observed" context of the CBI-family
// scoring model PBI inherits.
type Site struct {
	// File and Line locate the instruction; Kind the access type.
	File string
	Line int
	Kind cache.AccessKind
}

// DefaultPeriod is the sampling period in retired data accesses; PBI's
// hardware uses counter-overflow interrupts with similar effective rates.
const DefaultPeriod = 100

// Pred is a PBI predicate: an instruction observing a MESI state.
type Pred struct {
	// File and Line locate the instruction (source-stable identity).
	File string
	Line int
	// Kind and State describe the sampled access.
	Kind  cache.AccessKind
	State cache.State
}

// String renders the predicate like the LCR events it mirrors.
func (p Pred) String() string {
	return fmt.Sprintf("%s:%s@%s:%d", p.Kind, p.State, p.File, p.Line)
}

// RunObs is one run's sampled observations: which sites the interrupts
// landed on, and which (site, state) predicates were seen true.
type RunObs struct {
	// Failed classifies the run.
	Failed bool
	// Sites marks instructions sampled at least once (any state).
	Sites map[Site]bool
	// True marks predicates sampled with their state at least once.
	True map[Pred]bool
}

// Sampler attaches interrupt-style coherence-event sampling to a machine.
type Sampler struct {
	period int
	rng    rng.Rand
	obs    RunObs
	count  int
}

// NewSampler builds a sampler; period 0 means DefaultPeriod.
func NewSampler(period int, seed int64) *Sampler {
	if period <= 0 {
		period = DefaultPeriod
	}
	s := &Sampler{
		period: period,
		obs: RunObs{
			Sites: make(map[Site]bool),
			True:  make(map[Pred]bool),
		},
	}
	s.rng.Seed(seed)
	return s
}

// Attach installs the sampling hook. Each retired data access advances the
// counter; when the (jittered) period elapses, the "interrupt" records the
// access's predicate. Real PBI randomizes the period to avoid lockstep
// bias; so does this.
func (s *Sampler) Attach(m *vm.Machine) {
	prog := m.Prog()
	// Random initial phase: without it, accesses earlier than one period
	// into the run could never be sampled.
	next := 1 + s.rng.Intn(s.period)
	m.SetCoherenceHook(func(mm *vm.Machine, t *vm.Thread, pc int, kind cache.AccessKind, st cache.State) {
		s.count++
		if s.count < next {
			return
		}
		s.count = 0
		next = s.period + s.rng.Intn(s.period/2+1)
		if pc < 0 || pc >= len(prog.Instrs) {
			return
		}
		loc := prog.Instrs[pc].Loc
		s.obs.Sites[Site{File: loc.File, Line: loc.Line, Kind: kind}] = true
		s.obs.True[Pred{File: loc.File, Line: loc.Line, Kind: kind, State: st}] = true
	})
}

// Finish labels and returns the run's observations.
func (s *Sampler) Finish(failed bool) RunObs {
	s.obs.Failed = failed
	return s.obs
}

// Score is one predicate's PBI statistics, the CBI-family model the PBI
// paper uses: Failure(P) over runs where P sampled true, Context(P) over
// runs where P's site was sampled at all, Increase their difference.
type Score struct {
	Pred                 Pred
	F, S, Fobs, Sobs     int
	Failure, Context     float64
	Increase, Importance float64
}

// Rank scores every sampled predicate, best first.
func Rank(runs []RunObs) []Score {
	totalFail := 0
	type cell struct{ f, s, fobs, sobs int }
	counts := map[Pred]*cell{}
	get := func(p Pred) *cell {
		c := counts[p]
		if c == nil {
			c = &cell{}
			counts[p] = c
		}
		return c
	}
	for _, r := range runs {
		if r.Failed {
			totalFail++
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
	// Site context: a predicate is "observed" when its site was sampled.
	for p, c := range counts {
		site := Site{File: p.File, Line: p.Line, Kind: p.Kind}
		for _, r := range runs {
			if !r.Sites[site] {
				continue
			}
			if r.Failed {
				c.fobs++
			} else {
				c.sobs++
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
		return a.Pred.String() < b.Pred.String()
	})
	return out
}

// RankOf returns the 1-based rank of the first predicate with positive
// importance matching the filter, or 0.
func RankOf(scores []Score, match func(Pred) bool) int {
	for i, s := range scores {
		if s.Importance <= 0 {
			break
		}
		if match(s.Pred) {
			return i + 1
		}
	}
	return 0
}

// MinFailRunsToRank searches for the smallest failure-run count (from the
// given ladder) at which the predicate tops the ranking; it returns 0 if
// none suffices. The runner callback produces one sampled run per
// (failed, seed) request.
func MinFailRunsToRank(ladder []int, match func(Pred) bool,
	runner func(failed bool, seed int64) (RunObs, error)) (int, error) {
	for _, n := range ladder {
		var runs []RunObs
		for i := 0; i < n; i++ {
			r, err := runner(true, int64(i))
			if err != nil {
				return 0, err
			}
			runs = append(runs, r)
			r, err = runner(false, int64(i)+math.MaxInt32)
			if err != nil {
				return 0, err
			}
			runs = append(runs, r)
		}
		scores := Rank(runs)
		// High confidence requires the predictor to be sampled true in
		// several failing runs, not once by luck (paper §5.3: "e needs to
		// occur in a couple of failure-run profiles").
		if rank := RankOf(scores, match); rank == 1 && scores[0].F >= 3 {
			return n, nil
		}
	}
	return 0, nil
}
