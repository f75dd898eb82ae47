package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are seeds at the corners of Seed's reduction mod 2³¹−1: zero
// and its multiples (which math/rand replaces), negatives, values past 32
// bits and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, -2, -12345, 31337, 123456789,
	1 << 40, -1 << 62,
	mersenne, 2 * mersenne, mersenne - 1, mersenne + 1, -mersenne,
	math.MaxInt64, math.MinInt64,
}

func seeded(seed int64) (*Rand, *rand.Rand) {
	r := new(Rand)
	r.Seed(seed)
	return r, rand.New(rand.NewSource(seed))
}

// Three register lengths of draws cover the feed and tap indices wrapping.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		r, ref := seeded(seed)
		for i := 0; i < 3*length; i++ {
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, got, want)
			}
		}
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 = %d, math/rand %d", seed, got, want)
		}
	}
}

// Reseeding resets the whole state: a used generator reseeded draws what
// a fresh one does.
func TestReseed(t *testing.T) {
	r, _ := seeded(7)
	for i := 0; i < 1000; i++ {
		r.Int63()
	}
	r.Seed(-3)
	_, ref := seeded(-3)
	for i := 0; i < 2*length; i++ {
		if got, want := r.Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d after reseed: %d, math/rand %d", i, got, want)
		}
	}
}

func TestIntnMatchesMathRand(t *testing.T) {
	ns := []int{1, 2, 3, 5, 7, 16, 20, 100, 101, 1 << 20, 1<<20 + 1, 1 << 30,
		1<<30 + 1, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 3, 1 << 62, math.MaxInt64}
	for _, seed := range edgeSeeds {
		r, ref := seeded(seed)
		for i := 0; i < 400; i++ {
			for _, n := range ns {
				if got, want := r.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d round %d: Intn(%d) = %d, math/rand %d", seed, i, n, got, want)
				}
			}
		}
	}
}

// testRates cover both ends of Threshold's domain: never, always, the
// float64 neighbours of 0 and 1, and the rates the reproduction uses.
var testRates = []float64{
	math.Inf(-1), -0.5, 0, math.SmallestNonzeroFloat64, 1e-300, 0.001, 0.01, 0.25, 0.5,
	math.Nextafter(1, 0), 1, 1.5, math.Inf(1), math.NaN(),
}

func TestThresholdIsLeastDrawAtOrAboveRate(t *testing.T) {
	f := func(i int64) float64 { return float64(i) / (1 << 63) }
	for _, rate := range testRates {
		th := Threshold(rate)
		switch {
		case th < 0 || th > redraw:
			t.Errorf("Threshold(%v) = %d out of [0, %d]", rate, th, int64(redraw))
		case th < redraw && !(f(th) >= rate):
			t.Errorf("Threshold(%v) = %d: draw maps to %v < rate", rate, th, f(th))
		case th > 0 && f(th-1) >= rate:
			t.Errorf("Threshold(%v) = %d not least: %d maps to %v", rate, th, th-1, f(th-1))
		}
	}
}

func TestBelowMatchesFloat64(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, rate := range testRates {
			r, ref := seeded(seed)
			th := Threshold(rate)
			for i := 0; i < 5000; i++ {
				if got, want := r.Below(th), !(ref.Float64() >= rate); got != want {
					t.Fatalf("seed %d rate %v draw %d: Below = %v, !(Float64 >= rate) = %v", seed, rate, i, got, want)
				}
			}
		}
	}
}

// script is a rand.Source returning fixed draws, to drive math/rand's
// Float64 through draws a real stream almost never produces.
type script []int64

func (s *script) Int63() int64 { v := (*s)[0]; *s = (*s)[1:]; return v }
func (s *script) Seed(int64)   {}

// scripted returns a Rand whose next draws are vals: with every tap word
// zero, each draw is the feed word it lands on.
func scripted(vals []int64) *Rand {
	r := new(Rand)
	r.Seed(1)
	for j, v := range vals {
		r.vec[length-1-j] = 0
		r.vec[length-tap-1-j] = v
	}
	return r
}

// Draws Float64 rounds to 1 (2⁶³−512 and above) are redrawn, not taken as
// a decision, by Below and Run alike.
func TestRedrawRule(t *testing.T) {
	vals := []int64{mask, redraw, redraw - 1, mask, 0, redraw + 1, 1 << 62, redraw - 1}
	for _, rate := range []float64{0, 0.5, math.Nextafter(1, 0), 1} {
		th := Threshold(rate)
		r := scripted(vals)
		src := script(append([]int64(nil), vals...))
		ref := rand.New(&src)
		for k := 0; k < 4; k++ {
			if got, want := r.Below(th), !(ref.Float64() >= rate); got != want {
				t.Fatalf("rate %v decision %d: Below = %v, !(Float64 >= rate) = %v", rate, k, got, want)
			}
		}
		if len(src) != 0 {
			t.Fatalf("rate %v: math/rand left %d scripted draws", rate, len(src))
		}
		run := scripted(vals)
		got := run.Run(th, 4)
		below := scripted(vals)
		want := 0
		for want < 4 && !below.Below(th) {
			want++
		}
		if got != want || *run != *below {
			t.Fatalf("rate %v: Run = %d (state equal %v), Below loop %d", rate, got, *run == *below, want)
		}
	}
}

// runRef is Run spelled with math/rand: decisions until the first sample
// or n, counting the unsampled ones.
func runRef(ref *rand.Rand, rate float64, n int) int {
	k := 0
	for k < n && ref.Float64() >= rate {
		k++
	}
	return k
}

func TestRunMatchesFloat64(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, rate := range testRates {
			r, ref := seeded(seed)
			th := Threshold(rate)
			for _, n := range []int{0, 1, 2, 7, 100, 1000, 7000, 3, 50, 0, 10000} {
				if got, want := r.Run(th, n), runRef(ref, rate, n); got != want {
					t.Fatalf("seed %d rate %v: Run(%d) = %d, math/rand %d", seed, rate, n, got, want)
				}
			}
			// The streams are still in step.
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d rate %v: Int63 after runs = %d, math/rand %d", seed, rate, got, want)
			}
		}
	}
}

// FuzzMatchesMathRand drives the generator and math/rand through the same
// method sequence from one seed: each op byte picks Int63, Intn, Below or
// Run with an argument derived from the next byte.
func FuzzMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, 0.01, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	}
	f.Add(int64(0), 0.0, []byte{3, 255, 2, 0, 1, 1})
	f.Add(int64(-7), 1.0, []byte{3, 9, 3, 200, 1, 255})
	f.Add(int64(1<<40), math.NaN(), []byte{2, 2, 2, 3, 30})
	f.Add(int64(99), 0.5, []byte{1, 0, 1, 31, 1, 62, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, rate float64, ops []byte) {
		r, ref := seeded(seed)
		th := Threshold(rate)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 4 {
			case 0:
				if got, want := r.Int63(), ref.Int63(); got != want {
					t.Fatalf("op %d Int63 = %d, math/rand %d", i, got, want)
				}
			case 1:
				// Powers of two (1 included) and their neighbours.
				n := int(int64(1)<<(arg%63)) + arg/64 - 1
				if n <= 0 {
					n = 1
				}
				if got, want := r.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("op %d Intn(%d) = %d, math/rand %d", i, n, got, want)
				}
			case 2:
				if got, want := r.Below(th), !(ref.Float64() >= rate); got != want {
					t.Fatalf("op %d Below = %v, !(Float64 >= %v) = %v", i, got, rate, want)
				}
			case 3:
				if got, want := r.Run(th, arg), runRef(ref, rate, arg); got != want {
					t.Fatalf("op %d Run(%d) = %d, math/rand %d", i, arg, got, want)
				}
			}
		}
	})
}

func BenchmarkSeed(b *testing.B) {
	b.Run("owned", func(b *testing.B) {
		var r Rand
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}

// BenchmarkRun is the sampler's inner loop: decisions at CBI's default
// 1/100 rate, reported per draw.
func BenchmarkRun(b *testing.B) {
	var r Rand
	r.Seed(1)
	th := Threshold(0.01)
	draws := 0
	for i := 0; i < b.N; i++ {
		draws += r.Run(th, 7000) + 1
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
}
