package faultinj

import (
	"errors"
	"math"
	"strings"
	"testing"

	"stmdiag/internal/obs"
)

func TestLayerNamesRoundTrip(t *testing.T) {
	for i := 0; i < NumLayers; i++ {
		l := Layer(i)
		got, ok := LayerByName(l.String())
		if !ok || got != l {
			t.Errorf("LayerByName(%q) = %v, %v; want %v, true", l.String(), got, ok, l)
		}
	}
	if _, ok := LayerByName("no-such-layer"); ok {
		t.Error("LayerByName accepted an unknown name")
	}
}

func TestParseSpec(t *testing.T) {
	uniform := func(r float64) (rates [NumLayers]float64) {
		for i := range rates {
			rates[i] = r
		}
		return rates
	}
	cases := []struct {
		in      string
		want    Spec
		wantErr bool
	}{
		{in: "", want: Spec{}},
		{in: "off", want: Spec{}},
		{in: "  off  ", want: Spec{}},
		{in: "0.01", want: Spec{Rates: uniform(0.01)}},
		{in: "rate=0.01", want: Spec{Rates: uniform(0.01)}},
		{in: "rate=0", want: Spec{}},
		{in: "rate=1", want: Spec{Rates: uniform(1)}},
		{in: "seed=42", want: Spec{Seed: 42}},
		{in: "seed=-7", want: Spec{Seed: -7}},
		{in: "retries=5", want: Spec{Retries: 5}},
		{
			in: "lbr-drop=0.5",
			want: func() Spec {
				var s Spec
				s.Rates[LBRDrop] = 0.5
				return s
			}(),
		},
		{
			in: "rate=0.01,panic=0,seed=9,retries=3",
			want: func() Spec {
				s := Spec{Rates: uniform(0.01), Seed: 9, Retries: 3}
				s.Rates[TrialPanic] = 0
				return s
			}(),
		},
		{
			// Clauses apply left to right: later override wins.
			in: "msr-write=0.2,msr-write=0.4",
			want: func() Spec {
				var s Spec
				s.Rates[MSRWrite] = 0.4
				return s
			}(),
		},
		{
			// Whitespace around clauses and '=' is tolerated.
			in:   " rate = 0.1 , seed = 1 ",
			want: Spec{Rates: uniform(0.1), Seed: 1},
		},
		{in: "rate=1.5", wantErr: true},
		{in: "rate=-0.1", wantErr: true},
		{in: "rate=NaN", wantErr: true},
		{in: "rate=bogus", wantErr: true},
		{in: "bogus=0.1", wantErr: true},
		{in: "seed=1.5", wantErr: true},
		{in: "retries=0", wantErr: true},
		{in: "retries=-1", wantErr: true},
		{in: "retries=two", wantErr: true},
		{in: "rate=0.1,,seed=1", wantErr: true},
		{in: ",", wantErr: true},
		{in: "=0.1", wantErr: true},
		{in: "nonsense", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []string{
		"off", "rate=0.01", "lbr-drop=0.5", "rate=0.01,panic=0",
		"seed=42", "retries=3", "rate=0.1,seed=-2,retries=1",
		"msr-read=1e-06,msr-write=0.25",
	}
	for _, in := range specs {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Errorf("ParseSpec(%q -> %q): %v", in, s.String(), err)
			continue
		}
		if back != s {
			t.Errorf("round trip %q -> %q -> %+v, want %+v", in, s.String(), back, s)
		}
	}
	if got := (Spec{}).String(); got != "off" {
		t.Errorf("zero spec String() = %q, want off", got)
	}
}

func TestSpecRetryBudget(t *testing.T) {
	if got := (Spec{}).RetryBudget(); got != DefaultRetries {
		t.Errorf("default retry budget = %d, want %d", got, DefaultRetries)
	}
	if got := (Spec{Retries: 7}).RetryBudget(); got != 7 {
		t.Errorf("explicit retry budget = %d, want 7", got)
	}
}

// TestSpecArmsCapture: only the layers a VM run consults count as capture
// layers; the panic and store layers alone leave runs untouched.
func TestSpecArmsCapture(t *testing.T) {
	for in, want := range map[string]bool{
		"off":                   false,
		"panic=0.3":             false,
		"artifact-corrupt=0.01": false,
		"artifact-torn-write=0.5,journal-trunc=0.5,panic=1": false,
		"lbr-drop=0.01":        true,
		"succ-loss=0.2":        true,
		"rate=0.01,lbr-drop=0": true,
	} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ArmsCapture(); got != want {
			t.Errorf("ParseSpec(%q).ArmsCapture() = %v, want %v", in, got, want)
		}
	}
}

func TestNewPlanDisabled(t *testing.T) {
	if p := NewPlan(Spec{}, 0, "s", 0, 0, nil); p != nil {
		t.Error("disabled spec must yield a nil plan")
	}
	var nilPlan *Plan
	if nilPlan.Hit(LBRDrop) {
		t.Error("nil plan hit")
	}
	if got := nilPlan.Corrupt(LBRCorrupt, 42); got != 42 {
		t.Errorf("nil plan Corrupt = %d, want identity", got)
	}
	if got := nilPlan.TruncN(RingTrunc, 16); got != 16 {
		t.Errorf("nil plan TruncN = %d, want identity", got)
	}
	if got := nilPlan.Spec(); got != (Spec{}) {
		t.Errorf("nil plan Spec = %+v, want zero", got)
	}
}

// TestPlanDeterminism pins the derivation contract: identical tuples give
// identical fault streams; changing any component of the tuple decorrelates.
func TestPlanDeterminism(t *testing.T) {
	spec, err := ParseSpec("rate=0.3,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(p *Plan) string {
		var b strings.Builder
		for i := 0; i < 64; i++ {
			for l := 0; l < NumLayers; l++ {
				if p.Hit(Layer(l)) {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		}
		return b.String()
	}
	ref := draw(NewPlan(spec, 7, "sort/fail", 3, 0, nil))
	if again := draw(NewPlan(spec, 7, "sort/fail", 3, 0, nil)); again != ref {
		t.Fatal("same tuple produced different fault streams")
	}
	variants := map[string]*Plan{
		"base":    NewPlan(spec, 8, "sort/fail", 3, 0, nil),
		"stream":  NewPlan(spec, 7, "sort/succ", 3, 0, nil),
		"trial":   NewPlan(spec, 7, "sort/fail", 4, 0, nil),
		"attempt": NewPlan(spec, 7, "sort/fail", 3, 1, nil),
	}
	for name, p := range variants {
		if draw(p) == ref {
			t.Errorf("changing %s did not change the fault stream", name)
		}
	}
	other := spec
	other.Seed = 6
	if draw(NewPlan(other, 7, "sort/fail", 3, 0, nil)) == ref {
		t.Error("changing spec seed did not change the fault stream")
	}
}

// TestPlanRates checks the hit frequency tracks the configured rate and
// that rate-0 layers never fire even when others do.
func TestPlanRates(t *testing.T) {
	spec, err := ParseSpec("rate=0.25,panic=0")
	if err != nil {
		t.Fatal(err)
	}
	const draws = 4000
	hits := 0
	p := NewPlan(spec, 1, "rates", 0, 0, nil)
	for i := 0; i < draws; i++ {
		if p.Hit(LBRDrop) {
			hits++
		}
		if p.Hit(TrialPanic) {
			t.Fatal("rate-0 layer fired")
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.25) > 0.05 {
		t.Errorf("hit rate %.3f, want ~0.25", got)
	}
}

func TestPlanCounters(t *testing.T) {
	spec, err := ParseSpec("lbr-drop=1")
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	p := NewPlan(spec, 0, "counters", 0, 0, sink)
	for i := 0; i < 3; i++ {
		if !p.Hit(LBRDrop) {
			t.Fatal("rate-1 layer missed")
		}
	}
	snap := sink.Metrics.Snapshot()
	if got := snap.Counter("faultinj.injected.lbr-drop"); got != 3 {
		t.Errorf("layer counter = %d, want 3", got)
	}
	if got := snap.Counter("faultinj.injected"); got != 3 {
		t.Errorf("total counter = %d, want 3", got)
	}
}

func TestCorruptAndTruncN(t *testing.T) {
	spec, _ := ParseSpec("rate=1")
	p := NewPlan(spec, 0, "corrupt", 0, 0, nil)
	changed := false
	for i := 0; i < 32; i++ {
		v := p.Corrupt(LBRCorrupt, 100)
		if v < 0 {
			t.Fatalf("Corrupt produced negative value %d", v)
		}
		if v != 100 {
			changed = true
		}
	}
	if !changed {
		t.Error("Corrupt never changed the value in 32 draws")
	}
	for i := 0; i < 64; i++ {
		if k := p.TruncN(RingTrunc, 16); k < 0 || k >= 16 {
			t.Fatalf("TruncN(16) = %d outside [0, 16)", k)
		}
	}
	if k := p.TruncN(RingTrunc, 0); k != 0 {
		t.Errorf("TruncN(0) = %d, want 0", k)
	}
}

func TestErrGlitchIdentity(t *testing.T) {
	wrapped := errorsJoin(ErrGlitch)
	if !errors.Is(wrapped, ErrGlitch) {
		t.Error("wrapped glitch not recognized by errors.Is")
	}
}

// errorsJoin wraps e the way layer code reports glitches.
func errorsJoin(e error) error { return &glitchAt{e} }

type glitchAt struct{ err error }

func (g *glitchAt) Error() string { return "msr 0x1d9: " + g.err.Error() }
func (g *glitchAt) Unwrap() error { return g.err }
