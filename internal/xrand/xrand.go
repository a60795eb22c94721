// Package xrand provides deterministic, splittable pseudo-random streams
// for experiments. Every randomized component of the library takes an
// explicit *rand.Rand; this package standardizes how those are derived so
// that an experiment cell (topology, n, k, trial) always sees the same
// stream regardless of execution order or parallelism.
package xrand

import (
	"math/rand"
	"strconv"
)

// DefaultSeed is the root seed used by benches and examples when the caller
// does not supply one.
const DefaultSeed = 0x5eed_d7a1

// New returns a *rand.Rand seeded with seed. Its stream equals
// rand.New(rand.NewSource(seed)) draw for draw, but seeding (and
// re-seeding through Rand.Seed) is O(1): see lazySource.
func New(seed int64) *rand.Rand {
	return rand.New(newLazySource(seed))
}

// Derive deterministically derives a child seed from a root seed and a
// label path (e.g. "grid", "n=32", "k=4", "trial=7"). Two distinct label
// paths give independent-looking streams; the same path always gives the
// same stream.
func Derive(root int64, labels ...string) int64 {
	return Prefix(root, labels...).Seed()
}

// NewDerived is New(Derive(root, labels...)).
func NewDerived(root int64, labels ...string) *rand.Rand {
	return New(Derive(root, labels...))
}

// Path is a label path hashed up to some prefix: the FNV-64a state Derive
// reaches after the root seed and the prefix labels. Extending a Path
// costs only the new labels' bytes, so a loop deriving one seed per
// (site, chunk) hashes the shared prefix once and allocates nothing:
//
//	Derive(root, a, b, c) == Prefix(root, a, b).With(c)
type Path uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	labelSep  = 0xff // so ("ab","c") != ("a","bc")
)

// Prefix hashes the root seed and labels.
func Prefix(root int64, labels ...string) Path {
	h := uint64(fnvOffset)
	u := uint64(root)
	for i := 0; i < 8; i++ {
		h = (h ^ (u>>(8*i))&0xff) * fnvPrime
	}
	p := Path(h)
	for _, l := range labels {
		p = p.Label(l)
	}
	return p
}

// Label extends the path by one label.
func (p Path) Label(l string) Path {
	h := (uint64(p) ^ labelSep) * fnvPrime
	for i := 0; i < len(l); i++ {
		h = (h ^ uint64(l[i])) * fnvPrime
	}
	return Path(h)
}

// Int extends the path by the decimal label of n, as fmt.Sprint(n) spells
// it.
func (p Path) Int(n int64) Path {
	var buf [20]byte
	return p.Label(string(strconv.AppendInt(buf[:0], n, 10)))
}

// Seed returns the derived seed of the path.
func (p Path) Seed() int64 { return int64(p) }

// With returns the seed of the path extended by label l.
func (p Path) With(l string) int64 { return p.Label(l).Seed() }

// WithInt returns the seed of the path extended by the decimal label of n.
func (p Path) WithInt(n int64) int64 { return p.Int(n).Seed() }

// GeometricGap samples a discrete inter-arrival gap for a Bernoulli
// (discrete-time Poisson) arrival process of the given rate: the number
// of per-step coin flips with success probability p = min(rate, 1) up to
// and including the first success. Gaps are therefore ≥ 1 with mean
// exactly 1/p steps, so a stream of arrivals spaced by GeometricGap
// realizes its nominal rate (rates ≥ 1 clamp to one arrival per step).
// It panics on non-positive rates.
func GeometricGap(r *rand.Rand, rate float64) int64 {
	if rate <= 0 {
		panic("xrand: non-positive arrival rate")
	}
	p := rate
	if p > 1 {
		p = 1
	}
	var gap int64 = 1
	for r.Float64() > p {
		gap++
	}
	return gap
}

// Perm fills a deterministic permutation of [0, n) using r.
func Perm(r *rand.Rand, n int) []int { return r.Perm(n) }

// SampleK returns k distinct integers from [0, n) chosen uniformly at
// random (a uniform k-subset, as the Grid scheduling problem requires).
// It panics if k > n. The result is in selection order, not sorted.
func SampleK(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("xrand: sample larger than population")
	}
	if k < 0 {
		panic("xrand: negative sample size")
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// Shuffle shuffles s in place.
func Shuffle[T any](r *rand.Rand, s []T) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
