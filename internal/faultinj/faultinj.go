// Package faultinj is a deterministic fault-injection engine for the
// capture→diagnosis pipeline. The paper's premise is that LBR/LCR profiles
// are noisy, tiny and polluted (ring pollution, kernel-branch filtering,
// toggling around libraries, §4.2) yet statistical diagnosis still
// converges; this package makes that claim testable by injecting the fault
// classes a production deployment would actually see — record loss,
// duplication and corruption, ring truncation, MSR glitches, lost
// segfault-handler and success-site profiles, and whole-trial crashes —
// at seed-derived, byte-reproducible points.
//
// Determinism is the load-bearing property: a fault plan is derived from
// (spec seed, base seed, stream label, trial index, attempt, layer) exactly
// like the harness derives trial seeds, so a fixed -faults spec produces
// identical faults — and identical downstream output — for every -jobs
// value and across repeated runs.
package faultinj

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Layer identifies one injection point in the capture path.
type Layer uint8

// Injection layers, ordered roughly from hardware to harness. The comment
// names the paper-§4.2 pollution source each one generalizes.
const (
	// LBRDrop silently discards a branch record offered to the LBR
	// (recording gaps, the toggling-loss class of §4.3).
	LBRDrop Layer = iota
	// LBRDup records an offered branch twice, evicting an extra entry
	// (ring pollution by repeated entries).
	LBRDup
	// LBRCorrupt flips bits in a branch record's From/To before recording
	// (bit-level record corruption).
	LBRCorrupt
	// LCRDrop silently discards a coherence record offered to the LCR.
	LCRDrop
	// LCRDup records an offered coherence event twice.
	LCRDup
	// LCRCorrupt flips bits in a coherence record's PC before recording.
	LCRCorrupt
	// RingTrunc drops the oldest entries of a profile snapshot (partial
	// ring read-out, the short-history pollution of §4.2.1).
	RingTrunc
	// MSRRead corrupts a value read back from a branch-stack MSR during
	// profiling (rdmsr glitch).
	MSRRead
	// MSRWrite makes a configuration wrmsr fail (wrmsr glitch); consumers
	// retry and then degrade.
	MSRWrite
	// SegvLoss loses the segfault-handler profile of a crashing run (the
	// handler itself died, §5.1 step 4's fragile link).
	SegvLoss
	// SuccLoss loses a success-site profile (sampled success logging,
	// Figure 8's success-run attrition).
	SuccLoss
	// TrialPanic crashes the whole trial at the harness layer (a worker
	// panic in a production diagnosis fleet).
	TrialPanic

	// The store layers inject below the harness, into the durable artifact
	// path (internal/artifact): the faults a diagnosis pipeline's own
	// persistent state sees — torn writes, silent media corruption, and
	// truncated journal appends. They fire when an artifact store commits a
	// trial result, never during capture, so they test the resume path's
	// detect-quarantine-re-execute claim with the same deterministic
	// machinery as the capture layers.

	// ArtifactTorn cuts a blob write short (a crash mid-write leaving a
	// partial file behind the rename barrier).
	ArtifactTorn
	// ArtifactCorrupt flips a byte of a stored blob (bit rot / silent media
	// corruption caught by the content hash on load).
	ArtifactCorrupt
	// JournalTrunc tears a manifest-journal append mid-frame (the classic
	// torn tail that the open-time salvage scan must repair).
	JournalTrunc

	// NumLayers counts the injection layers.
	NumLayers = int(JournalTrunc) + 1
)

var layerNames = [NumLayers]string{
	"lbr-drop", "lbr-dup", "lbr-corrupt",
	"lcr-drop", "lcr-dup", "lcr-corrupt",
	"ring-trunc", "msr-read", "msr-write",
	"segv-loss", "succ-loss", "panic",
	"artifact-torn-write", "artifact-corrupt", "journal-trunc",
}

// String returns the spec-grammar name of the layer.
func (l Layer) String() string {
	if int(l) < NumLayers {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// LayerByName resolves a spec-grammar layer name.
func LayerByName(name string) (Layer, bool) {
	for i, n := range layerNames {
		if n == name {
			return Layer(i), true
		}
	}
	return 0, false
}

// ErrGlitch marks an injected MSR failure. Consumers distinguish it from
// genuine errors with errors.Is and degrade (retry, then skip) instead of
// aborting the run.
var ErrGlitch = errors.New("faultinj: injected MSR glitch")

// DefaultRetries is the retry budget for panicking trials when the spec
// does not set one: a trial may be re-attempted this many times before it
// is recorded as degraded.
const DefaultRetries = 2

// Spec is a parsed fault specification: a per-layer injection rate plus the
// plan-derivation seed salt and the trial retry budget. The zero Spec is
// "off": no layer injects and plans are nil.
type Spec struct {
	// Rates holds the per-layer injection probability in [0, 1].
	Rates [NumLayers]float64
	// Seed salts every plan derivation, decorrelating fault streams from
	// the workload's trial seeds.
	Seed int64
	// Retries is the per-trial retry budget for panicking trials; 0 means
	// DefaultRetries. Parse clause: "retries=N", N >= 1.
	Retries int
}

// Enabled reports whether any layer has a positive rate.
func (s Spec) Enabled() bool {
	for _, r := range s.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// ArmsCapture reports whether any capture layer — the injectors a VM run
// consults, lbr-* through succ-loss — has a positive rate. The panic layer
// fires in the harness before a trial body runs, and the artifact and
// journal layers in the durable store, so neither shapes a run.
func (s Spec) ArmsCapture() bool {
	for l := LBRDrop; l <= SuccLoss; l++ {
		if s.Rates[l] > 0 {
			return true
		}
	}
	return false
}

// RetryBudget returns the effective retry budget.
func (s Spec) RetryBudget() int {
	if s.Retries > 0 {
		return s.Retries
	}
	return DefaultRetries
}

// ParseSpec parses the -faults spec grammar:
//
//	spec    := "" | "off" | clause ("," clause)*
//	clause  := "rate=" FLOAT        base rate applied to every layer
//	         | LAYER "=" FLOAT      per-layer rate override
//	         | "seed=" INT          fault-plan seed salt
//	         | "retries=" INT       trial retry budget (>= 1)
//	LAYER   := lbr-drop | lbr-dup | lbr-corrupt | lcr-drop | lcr-dup
//	         | lcr-corrupt | ring-trunc | msr-read | msr-write
//	         | segv-loss | succ-loss | panic
//	         | artifact-torn-write | artifact-corrupt | journal-trunc
//
// Rates must be finite and in [0, 1]. Clauses apply left to right, so
// "rate=0.01,panic=0" turns everything on at 1% except trial panics.
// A bare float ("0.01") is shorthand for "rate=0.01".
func ParseSpec(in string) (Spec, error) {
	var s Spec
	src := strings.TrimSpace(in)
	if src == "" || src == "off" {
		return s, nil
	}
	for _, clause := range strings.Split(src, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			return Spec{}, fmt.Errorf("faultinj: empty clause in spec %q", in)
		}
		key, val, found := strings.Cut(clause, "=")
		if !found {
			// Bare float shorthand for the base rate.
			r, err := parseRate(clause)
			if err != nil {
				return Spec{}, fmt.Errorf("faultinj: clause %q is neither key=value nor a rate: %w", clause, err)
			}
			for i := range s.Rates {
				s.Rates[i] = r
			}
			continue
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "rate":
			r, err := parseRate(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faultinj: rate clause %q: %w", clause, err)
			}
			for i := range s.Rates {
				s.Rates[i] = r
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faultinj: seed clause %q: %v", clause, err)
			}
			s.Seed = n
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("faultinj: retries clause %q: want an integer >= 1", clause)
			}
			s.Retries = n
		default:
			l, ok := LayerByName(key)
			if !ok {
				return Spec{}, fmt.Errorf("faultinj: unknown clause key %q (layers: %s)",
					key, strings.Join(layerNames[:], ", "))
			}
			r, err := parseRate(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faultinj: layer clause %q: %w", clause, err)
			}
			s.Rates[l] = r
		}
	}
	return s, nil
}

// parseRate parses a probability in [0, 1].
func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if r != r || r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %v outside [0, 1]", r)
	}
	return r, nil
}

// String renders the spec in canonical grammar form; ParseSpec(s.String())
// reproduces s exactly. The zero spec renders as "off".
func (s Spec) String() string {
	var clauses []string
	uniform := true
	for _, r := range s.Rates[1:] {
		if r != s.Rates[0] {
			uniform = false
			break
		}
	}
	switch {
	case uniform && s.Rates[0] != 0:
		clauses = append(clauses, "rate="+fmtRate(s.Rates[0]))
	case !uniform:
		for i, r := range s.Rates {
			if r != 0 {
				clauses = append(clauses, layerNames[i]+"="+fmtRate(r))
			}
		}
		sort.Strings(clauses)
	}
	if s.Seed != 0 {
		clauses = append(clauses, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	if s.Retries != 0 {
		clauses = append(clauses, "retries="+strconv.Itoa(s.Retries))
	}
	if len(clauses) == 0 {
		return "off"
	}
	return strings.Join(clauses, ",")
}

// fmtRate renders a rate so that parsing it back yields the same float64.
func fmtRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }
