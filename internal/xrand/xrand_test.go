package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, "grid", "n=32")
	b := Derive(42, "grid", "n=32")
	if a != b {
		t.Fatal("same labels gave different seeds")
	}
}

func TestDeriveSeparatesLabels(t *testing.T) {
	if Derive(1, "ab", "c") == Derive(1, "a", "bc") {
		t.Fatal("label concatenation collision")
	}
	if Derive(1, "x") == Derive(2, "x") {
		t.Fatal("root seed ignored")
	}
	if Derive(1, "x") == Derive(1, "y") {
		t.Fatal("labels ignored")
	}
}

func TestNewDerivedStreamsDiffer(t *testing.T) {
	r1 := NewDerived(7, "a")
	r2 := NewDerived(7, "b")
	same := true
	for i := 0; i < 8; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("derived streams identical for distinct labels")
	}
}

func TestSampleKProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := New(seed)
		n := 1 + int(uint(seed)%50)
		k := int(uint(seed/3) % uint(n+1))
		s := SampleK(r, n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, x := range s {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKFull(t *testing.T) {
	r := New(1)
	s := SampleK(r, 5, 5)
	seen := make(map[int]bool)
	for _, x := range s {
		seen[x] = true
	}
	if len(seen) != 5 {
		t.Fatalf("SampleK(5,5) = %v, not a permutation", s)
	}
}

func TestSampleKPanics(t *testing.T) {
	r := New(1)
	t.Run("k>n", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for k > n")
			}
		}()
		SampleK(r, 2, 3)
	})
	t.Run("negative", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for negative k")
			}
		}()
		SampleK(r, 2, -1)
	})
}

func TestSampleKUniformish(t *testing.T) {
	// Every element of [0,8) should be sampled roughly equally often.
	r := New(99)
	counts := make([]int, 8)
	const trials = 4000
	for i := 0; i < trials; i++ {
		for _, x := range SampleK(r, 8, 2) {
			counts[x]++
		}
	}
	want := trials * 2 / 8
	for x, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("element %d sampled %d times, expected ≈%d", x, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(3)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(r, s)
	sum := 0
	for _, x := range s {
		sum += x
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestGeometricGapMeanAndClamp(t *testing.T) {
	r := New(17)
	// Gaps are ≥ 1 with mean 1/p; a fixed seed makes the check exact.
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		const samples = 20000
		var sum int64
		for i := 0; i < samples; i++ {
			g := GeometricGap(r, rate)
			if g < 1 {
				t.Fatalf("rate %v: gap %d < 1", rate, g)
			}
			sum += g
		}
		mean := float64(sum) / samples
		if want := 1 / rate; mean < 0.97*want || mean > 1.03*want {
			t.Fatalf("rate %v: mean gap %v, want ≈ %v", rate, mean, want)
		}
	}
	// Rates ≥ 1 clamp to one arrival per step: the gap is exactly 1.
	for i := 0; i < 100; i++ {
		if g := GeometricGap(r, 2.5); g != 1 {
			t.Fatalf("rate 2.5: gap %d, want 1", g)
		}
	}
}

func TestGeometricGapPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rate 0")
		}
	}()
	GeometricGap(New(1), 0)
}

// TestLazySourceMatchesMathRand pins the lazy source to math/rand draw for
// draw: seeds that hit every normalization branch of rngSource.Seed, 1,000
// draws each (across the handoff at draw 274), and re-seeding through
// Rand.Seed both before and after a handoff.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, -89482311, m, -m, 2 * m, 3*m + 1, -5 * m, 7 * m,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, DefaultSeed}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 1000; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i+1, g, w)
			}
		}
		// Re-seed mid-stream: once past the handoff, once before it.
		for _, n := range []int{0, 100, 273, 274, 600} {
			reseed := seed ^ int64(n)
			want.Seed(reseed)
			got.Seed(reseed)
			for i := 0; i < n+300; i++ {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d re-seeded to %d: draw %d = %d, math/rand gives %d", seed, reseed, i+1, g, w)
				}
			}
		}
	}
}

// TestRegistersMatchMathRand checks the seeded registers the lazy draws
// never read, vec[0..60]: math/rand's draw 334−i adds vec[i] to the value
// draw 61−i wrote into vec[273+i], so vec[i] is the difference of the two
// outputs. With the draw test above this covers every rngCooked entry.
func TestRegistersMatchMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MaxInt64, DefaultSeed} {
		r := rand.NewSource(seed).(rand.Source64)
		out := make([]uint64, rngLen-rngTap+1) // out[j] is draw j, 1-based
		for j := 1; j < len(out); j++ {
			out[j] = r.Uint64()
		}
		s := newLazySource(seed)
		for i := 0; i < rngLen-2*rngTap; i++ {
			if got, want := uint64(s.reg(i)), out[rngLen-rngTap-i]-out[rngLen-2*rngTap-i]; got != want {
				t.Fatalf("seed %d: vec[%d] = %#x, math/rand seeds %#x", seed, i, got, want)
			}
		}
	}
}

// TestLazySourceDerivedDistributions checks the Rand methods the library
// draws through, over 10k derived seeds.
func TestLazySourceDerivedDistributions(t *testing.T) {
	for i := 0; i < 10000; i++ {
		seed := Derive(int64(i), "equiv", "derived")
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		if w, g := want.Float64(), got.Float64(); w != g {
			t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, g, w)
		}
		n := int64(1 + i%1000)
		if w, g := want.Int63n(n), got.Int63n(n); w != g {
			t.Fatalf("seed %d: Int63n(%d) %d, math/rand %d", seed, n, g, w)
		}
		if w, g := want.Intn(int(n)+7), got.Intn(int(n)+7); w != g {
			t.Fatalf("seed %d: Intn %d, math/rand %d", seed, g, w)
		}
		size := i % 64
		if i%500 == 0 {
			size = 400 // a long permutation crosses the handoff
		}
		if w, g := want.Perm(size), got.Perm(size); !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d: Perm(%d) %v, math/rand %v", seed, size, g, w)
		}
	}
}

// TestPrefixMatchesDerive checks that hashing a shared prefix once and
// extending it gives Derive's seed, for random label paths.
func TestPrefixMatchesDerive(t *testing.T) {
	r := New(1)
	word := func() string {
		b := make([]byte, r.Intn(6))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		root := int64(r.Uint64())
		labels := make([]string, r.Intn(6))
		for j := range labels {
			labels[j] = word()
		}
		want := Derive(root, labels...)
		cut := r.Intn(len(labels) + 1)
		p := Prefix(root, labels[:cut]...)
		for _, l := range labels[cut:] {
			p = p.Label(l)
		}
		if p.Seed() != want {
			t.Fatalf("Prefix(%d, %q).Label(%q...) = %d, Derive gives %d", root, labels[:cut], labels[cut:], p.Seed(), want)
		}
		if len(labels) > 0 {
			last := len(labels) - 1
			if got := Prefix(root, labels[:last]...).With(labels[last]); got != want {
				t.Fatalf("Prefix(...).With(%q) = %d, Derive gives %d", labels[last], got, want)
			}
		}
		a, b := int64(r.Uint64()), int64(r.Intn(100)-50)
		want = Derive(root, "faults", "link-down", fmt.Sprint(a), fmt.Sprint(b), "chunk", fmt.Sprint(i))
		if got := Prefix(root, "faults", "link-down").Int(a).Int(b).Label("chunk").WithInt(int64(i)); got != want {
			t.Fatalf("integer labels (%d, %d, %d) = %d, Derive gives %d", a, b, i, got, want)
		}
	}
	if got, want := Prefix(0).Int(math.MinInt64).Seed(), Derive(0, fmt.Sprint(int64(math.MinInt64))); got != want {
		t.Fatalf("MinInt64 label = %d, Derive gives %d", got, want)
	}
}
