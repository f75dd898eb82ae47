// Package rng owns the generator every seeded path of the reproduction
// draws from: the additive lagged-Fibonacci source behind math/rand's v1
// API (607 words, tap 273), with the same seeding, so a Rand seeded with s
// yields exactly the stream of rand.New(rand.NewSource(s)).
//
// Owning the state rather than calling math/rand buys three things on the
// hot paths:
//   - a Rand is a plain value, so a run can keep its generator in its own
//     stack frame instead of allocating a 4.9 KB source per trial;
//   - Seed computes every seeding iterate independently from precomputed
//     powers of the multiplier, instead of walking a 1,841-step chain;
//   - Below and Run make the `!(Float64() >= rate)` sampling decision
//     as one integer compare against a precomputed Threshold, with no
//     interface dispatch and no float conversion per draw.
package rng

const (
	length = 607 // words of feedback register
	tap    = 273 // lag of the second operand
	mask   = 1<<63 - 1

	// mersenne is the modulus of the seeding recurrence
	// x' = multiplier·x mod (2³¹−1).
	mersenne   = 1<<31 - 1
	multiplier = 48271

	// warmup is the number of seeding iterates discarded before the first
	// register word; each word then consumes three.
	warmup = 20

	// redraw is the least 63-bit draw that math/rand's Float64 rounds to
	// exactly 1 (2⁶³−512 is the midpoint below 2⁶³, and ties round to the
	// even 2⁶³). Float64 discards such draws and draws again; Below and Run
	// do the same.
	redraw = 1<<63 - 512
)

// pow[k] is multiplier^k mod 2³¹−1: the k-th seeding iterate is
// x0·pow[k], so Seed computes each iterate with one multiply and a fold.
var pow = func() (p [warmup + 3*length + 1]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = mulmod(p[k-1], multiplier)
	}
	return p
}()

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹, reducing with the Mersenne
// fold 2³¹ ≡ 1 instead of a division.
func mulmod(a, b uint64) uint64 {
	v := a * b                     // < 2⁶²
	v = (v & mersenne) + (v >> 31) // < 2³²
	v = (v & mersenne) + (v >> 31) // ≤ 2³¹
	if v >= mersenne {
		v -= mersenne
	}
	return v
}

// Rand is the generator state. The zero value is not seeded; call Seed.
// A Rand is about 4.9 KB, meant to live by value in its owner: a struct
// field or a local variable.
type Rand struct {
	tap, feed int
	vec       [length]int64
}

// Seed resets the generator to the state math/rand's source reaches from
// the same seed.
func (r *Rand) Seed(seed int64) {
	r.tap = 0
	r.feed = length - tap
	seed %= mersenne
	if seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range r.vec {
		k := warmup + 1 + 3*i
		u := int64(mulmod(x, pow[k])) << 40
		u ^= int64(mulmod(x, pow[k+1])) << 20
		u ^= int64(mulmod(x, pow[k+2]))
		r.vec[i] = u ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit value of the stream.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += length
	}
	r.feed--
	if r.feed < 0 {
		r.feed += length
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as rand.Rand.Int63.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & mask) }

// Intn returns a value in [0, n), as rand.Rand.Intn: through Int31n's
// rejection rule for n < 2³¹, Int63n's above, so it consumes the same
// draws. Intn(1) still consumes one. It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// int31n is rand.Rand.Int31n for n > 0.
func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 { // a power of two, 1 included
		return int32(r.Int63()>>32) & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.Int63() >> 32)
	for v > limit {
		v = int32(r.Int63() >> 32)
	}
	return v % n
}

// int63n is rand.Rand.Int63n for n > 0.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}

// Threshold returns the integer form of a sampling rate: the least 63-bit
// draw i with float64(i)/2⁶³ >= rate. Because the conversion rounds
// monotonically, math/rand's `Float64() >= rate` holds exactly when the
// draw Float64 kept is at least Threshold(rate). Rates at or below 0 give
// 0 (never sample). 1, anything above and NaN, for which `Float64() >=
// rate` never holds, give a threshold above every kept draw (always
// sample).
func Threshold(rate float64) int64 {
	if !(rate < 1) {
		return redraw
	}
	if rate <= 0 {
		return 0
	}
	lo, hi := int64(0), int64(redraw)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= rate {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Below is one sampling decision: it draws as math/rand's Float64 does,
// redrawing values it would round to 1, and reports whether the draw is
// below t. With t = Threshold(rate) that is `!(Float64() >= rate)`: CBI's
// "sample this site" decision.
func (r *Rand) Below(t int64) bool {
	for {
		if v := r.Int63(); v < redraw {
			return v < t
		}
	}
}

// Run makes up to n decisions as Below(t) would and returns how many came
// out false before the first true one. A result below n means decision
// result+1 was true (and was consumed); n means none of the n was.
//
// It draws in spans where neither register index wraps, with the indices
// in locals, so a draw costs a load, an add, a store and two compares.
func (r *Rand) Run(t int64, n int) int {
	tp, fd := r.tap, r.feed
	k := 0
	for k < n {
		if tp == 0 {
			tp = length
		}
		if fd == 0 {
			fd = length
		}
		// A redraw decides nothing, so a span can end with k still short
		// of n; the next span draws the rest.
		span := min(tp, fd, n-k)
		feed := r.vec[fd-span : fd]
		taps := r.vec[tp-span : tp]
		taps = taps[:len(feed)]
		for j := len(feed) - 1; j >= 0; j-- {
			x := feed[j] + taps[j]
			feed[j] = x
			v := x & mask
			if v < t {
				r.tap, r.feed = tp-span+j, fd-span+j
				return k
			}
			if v < redraw {
				k++
			}
		}
		tp, fd = tp-span, fd-span
	}
	r.tap, r.feed = tp, fd
	return k
}
