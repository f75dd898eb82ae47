// Package stats implements the statistical model LBRA and LCRA use to
// locate failure root causes (paper §5.2 "How to compare?").
//
// Each success or failure run contributes a profile — the set of events
// recorded in its LBR/LCR snapshot. An event's expected prediction
// precision is |F&e|/|e| (of the runs whose profile contains e, how many
// failed) and its expected prediction recall is |F&e|/|F| (of the failing
// runs, how many contain e). Events are ranked by the harmonic mean of the
// two, and the top-ranked event is reported as the best failure predictor.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Run is one run's profile reduced to an event set.
type Run[E comparable] struct {
	// Failed reports whether the run failed.
	Failed bool
	// Events are the events present in the run's profile; duplicates are
	// collapsed (presence semantics, as in the paper's model).
	Events []E
}

// Scored is one event with its prediction statistics.
type Scored[E comparable] struct {
	// Event is the event.
	Event E
	// InFail and InSucc count the failing/successful runs whose profiles
	// contain the event.
	InFail, InSucc int
	// Precision is |F&e| / |e|.
	Precision float64
	// Recall is |F&e| / |F|.
	Recall float64
	// Score is the harmonic mean of Precision and Recall.
	Score float64
}

// String formats the scored event for reports.
func (s Scored[E]) String() string {
	return fmt.Sprintf("%v score=%.3f (precision=%.3f recall=%.3f fail=%d succ=%d)",
		s.Event, s.Score, s.Precision, s.Recall, s.InFail, s.InSucc)
}

// HarmonicMean returns the harmonic mean of two non-negative quantities,
// zero when either is zero, non-positive, or NaN. Infinite inputs take the
// limit: HarmonicMean(+Inf, b) = 2b, and HarmonicMean(+Inf, +Inf) = +Inf —
// never the NaN that 2*a*b/(a+b) would produce from Inf/Inf.
func HarmonicMean(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || a <= 0 || b <= 0 {
		return 0
	}
	switch {
	case math.IsInf(a, 1) && math.IsInf(b, 1):
		return math.Inf(1)
	case math.IsInf(a, 1):
		return 2 * b
	case math.IsInf(b, 1):
		return 2 * a
	}
	// 2*(a*b), not (2*a)*b: the grouping keeps the expression symmetric in
	// a and b even when one doubling would overflow. Doubling is exact, so
	// the value is unchanged wherever neither form overflows.
	h := 2 * (a * b) / (a + b)
	if math.IsNaN(h) || math.IsInf(h, 1) {
		// 2*a*b overflowed for huge finite operands. Both operands must be
		// enormous for that to happen, so the reciprocal form cannot itself
		// overflow or divide by zero here.
		h = 2 / (1/a + 1/b)
	}
	return h
}

// ScoreCounts builds one event's Scored from merged occurrence counters:
// inFail/inSucc count the failing/successful runs whose profiles contain
// the event, failTotal the failing runs overall. Because counters are plain
// sums, they can be accumulated in any order — per run, per batch, per
// machine — and ScoreCounts yields exactly the statistics Rank computes
// from the full run set. This is what makes cooperative (fleet) aggregation
// equivalent to monolithic diagnosis.
func ScoreCounts[E comparable](e E, inFail, inSucc, failTotal int) Scored[E] {
	var prec, rec float64
	if inFail+inSucc > 0 {
		prec = float64(inFail) / float64(inFail+inSucc)
	}
	if failTotal > 0 {
		rec = float64(inFail) / float64(failTotal)
	}
	return Scored[E]{
		Event:     e,
		InFail:    inFail,
		InSucc:    inSucc,
		Precision: prec,
		Recall:    rec,
		Score:     HarmonicMean(prec, rec),
	}
}

// Less is the ranking's strict total order: higher score first, ties broken
// by higher precision, then more failing occurrences, then the event's
// formatted representation. Exposed so incremental rankers can maintain a
// sorted ranking (binary-search insertion) that matches a full SortScored
// byte for byte.
func Less[E comparable](a, b Scored[E]) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Precision != b.Precision {
		return a.Precision > b.Precision
	}
	if a.InFail != b.InFail {
		return a.InFail > b.InFail
	}
	return fmt.Sprint(a.Event) < fmt.Sprint(b.Event)
}

// SortScored orders a ranking best-first under Less.
func SortScored[E comparable](out []Scored[E]) {
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
}

// Counts reduces a run set to the per-event spectrum counters every ranker
// consumes: how many failing and successful runs contain each event
// (presence semantics — duplicates within a run collapse), plus the
// failing/successful run totals. Rank scores these with the harmonic-mean
// model; internal/spectrum scores the same counters with Ochiai and
// Tarantula, so the rankers differ only in arithmetic, never in counting.
func Counts[E comparable](runs []Run[E]) (inFail, inSucc map[E]int, failTotal, succTotal int) {
	inFail = make(map[E]int)
	inSucc = make(map[E]int)
	var seen map[E]bool // one set for every run, cleared between them
	for _, r := range runs {
		if r.Failed {
			failTotal++
		} else {
			succTotal++
		}
		if seen == nil {
			seen = make(map[E]bool, len(r.Events))
		} else {
			clear(seen)
		}
		for _, e := range r.Events {
			if seen[e] {
				continue
			}
			seen[e] = true
			if r.Failed {
				inFail[e]++
			} else {
				inSucc[e]++
			}
		}
	}
	return inFail, inSucc, failTotal, succTotal
}

// Rank scores every event appearing in any run and returns them best-first.
// Ties break deterministically: higher precision first, then more failing
// occurrences, then the event's formatted representation.
func Rank[E comparable](runs []Run[E]) []Scored[E] {
	inFail, inSucc, failTotal, _ := Counts(runs)
	events := make(map[E]bool, len(inFail)+len(inSucc))
	for e := range inFail {
		events[e] = true
	}
	for e := range inSucc {
		events[e] = true
	}
	out := make([]Scored[E], 0, len(events))
	for e := range events {
		out = append(out, ScoreCounts(e, inFail[e], inSucc[e], failTotal))
	}
	SortScored(out)
	return out
}

// RankOf returns the 1-based position of the first event satisfying match
// in the ranking, or 0 if absent.
func RankOf[E comparable](ranking []Scored[E], match func(E) bool) int {
	for i, s := range ranking {
		if match(s.Event) {
			return i + 1
		}
	}
	return 0
}

// Mean returns the arithmetic mean of xs, 0 for empty input. NaN elements
// are skipped (a poisoned sample must not erase the whole aggregate); if
// every element is NaN the mean is 0.
func Mean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
