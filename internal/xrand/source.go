package xrand

import "math/rand"

// math/rand's generator is an additive lagged Fibonacci generator over a
// 607-word register vec. Seeding fills vec[i] from three consecutive terms
// of the Lehmer sequence x ← 48271·x mod (2³¹−1), XORed with rngCooked[i]:
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i],  xₚ = 48271ᵖ·x₀
//
// Draw j (1-based) returns vec[334−j] + vec[607−j] and writes the sum back
// to vec[334−j]. For j ≤ 273 both reads hit registers no earlier draw has
// written, so those draws are a pure function of the seed: six Lehmer terms
// each, every term one multiplication by a precomputed power of 48271. The
// first draw to read a written register is 274 (vec[333], written by draw
// 1), so that is where lazySource hands off to a real math/rand source.
const (
	rngLen  = 607
	rngTap  = 273
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	seedAlt = 89482311 // math/rand's replacement for a zero seed
)

// lcgPow[p] = 48271ᵖ mod (2³¹−1), for every Lehmer term seeding reads.
var lcgPow = func() (t [23 + 3*(rngLen-1) + 1]uint64) {
	t[0] = 1
	for p := 1; p < len(t); p++ {
		t[p] = mulMod(t[p-1], lcgMul)
	}
	return t
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the Mersenne
// modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&lcgMod + t>>31
	t = t&lcgMod + t>>31
	if t >= lcgMod {
		t -= lcgMod
	}
	return t
}

// lazySource is a rand.Source64 whose output equals rand.NewSource(seed)
// draw for draw, but whose seeding is O(1) instead of 1,841 Lehmer steps
// over a 4.8 KB register: the first 273 draws are computed from the seed
// alone, and only a stream that draws more builds the real source and
// skips ahead past the draws already served.
type lazySource struct {
	seed  int64
	x0    uint64 // the normalized Lehmer seed, in [1, 2³¹−2]
	drawn int    // draws served so far
	full  rand.Source64
	live  bool // full is seeded and current
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. A source that already handed off keeps its
// register allocation for the next handoff.
func (s *lazySource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = seedAlt
	}
	s.seed, s.x0, s.drawn, s.live = seed, uint64(x), 0, false
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if s.live {
		return s.full.Uint64()
	}
	if s.drawn < rngTap {
		s.drawn++
		j := s.drawn
		return uint64(s.reg(rngLen-rngTap-j) + s.reg(rngLen-j))
	}
	if s.full == nil {
		s.full = rand.NewSource(s.seed).(rand.Source64)
	} else {
		s.full.Seed(s.seed)
	}
	for i := 0; i < s.drawn; i++ {
		s.full.Uint64()
	}
	s.live = true
	return s.full.Uint64()
}

// reg returns the freshly seeded register vec[i].
func (s *lazySource) reg(i int) int64 {
	p := 21 + 3*i
	return int64(mulMod(lcgPow[p], s.x0))<<40 ^
		int64(mulMod(lcgPow[p+1], s.x0))<<20 ^
		int64(mulMod(lcgPow[p+2], s.x0)) ^
		rngCooked[i]
}
