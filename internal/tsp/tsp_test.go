package tsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsched/internal/graph"
)

// lineMetric is |u−v|: walks and tours have obvious closed forms.
type lineMetric struct{}

func (lineMetric) Dist(u, v graph.NodeID) int64 {
	d := int64(u) - int64(v)
	if d < 0 {
		d = -d
	}
	return d
}

func TestWalkOnLine(t *testing.T) {
	m := lineMetric{}
	// home 5, sites 2 and 9: best is 5→2→9 or 5→9→2: min(3+7, 4+7) = 10.
	b := Walk(m, 5, []graph.NodeID{2, 9})
	if !b.Exact || b.LB != 10 || b.UB != 10 {
		t.Fatalf("Walk = %+v, want exact 10", b)
	}
}

func TestWalkTrivialCases(t *testing.T) {
	m := lineMetric{}
	if b := Walk(m, 3, nil); !b.Exact || b.LB != 0 {
		t.Fatalf("empty walk = %+v", b)
	}
	if b := Walk(m, 3, []graph.NodeID{3}); !b.Exact || b.LB != 0 {
		t.Fatalf("walk to home only = %+v", b)
	}
	if b := Walk(m, 3, []graph.NodeID{7, 7, 3}); !b.Exact || b.LB != 4 {
		t.Fatalf("walk with dups = %+v, want 4", b)
	}
}

func TestTourOnLine(t *testing.T) {
	m := lineMetric{}
	// Tour over {1, 4, 9}: span is 8, closed tour = 16.
	b := Tour(m, []graph.NodeID{4, 1, 9})
	if !b.Exact || b.LB != 16 {
		t.Fatalf("Tour = %+v, want exact 16", b)
	}
	if b := Tour(m, []graph.NodeID{5}); b.LB != 0 || !b.Exact {
		t.Fatalf("singleton tour = %+v", b)
	}
	if b := Tour(m, []graph.NodeID{2, 6}); b.LB != 8 || !b.Exact {
		t.Fatalf("pair tour = %+v, want 8", b)
	}
}

func TestMSTWeightHandComputed(t *testing.T) {
	m := lineMetric{}
	// Sites 0, 4, 10: MST edges 0-4 (4) and 4-10 (6).
	if w := MSTWeight(m, []graph.NodeID{10, 0, 4}); w != 10 {
		t.Fatalf("MSTWeight = %d, want 10", w)
	}
	if w := MSTWeight(m, []graph.NodeID{3}); w != 0 {
		t.Fatalf("single-site MST = %d", w)
	}
}

// bruteWalk enumerates all permutations (small q only).
func bruteWalk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	best := int64(1) << 60
	perm := make([]graph.NodeID, len(sites))
	copy(perm, sites)
	var rec func(i int)
	rec = func(i int) {
		if i == len(perm) {
			var total int64
			cur := home
			for _, v := range perm {
				total += m.Dist(cur, v)
				cur = v
			}
			if total < best {
				best = total
			}
			return
		}
		for j := i; j < len(perm); j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

// randomGraphMetric builds a random connected weighted graph and exposes
// its shortest-path metric plus some random sites.
func randomGraphMetric(r *rand.Rand, n int) (*graph.Graph, []graph.NodeID) {
	g := graph.New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(5))
	}
	q := 2 + r.Intn(6)
	sites := make([]graph.NodeID, q)
	for i := range sites {
		sites[i] = graph.NodeID(r.Intn(n))
	}
	return g, sites
}

func TestHeldKarpMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, sites := randomGraphMetric(r, 4+r.Intn(10))
		home := graph.NodeID(r.Intn(g.NumNodes()))
		b := Walk(g, home, sites)
		if !b.Exact {
			return false
		}
		want := bruteWalk(g, home, dedupe(sites, home))
		if len(dedupe(sites, home)) == 0 {
			want = 0
		}
		return b.LB == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTourBoundsOrderingProperty(t *testing.T) {
	// For any site set: MST ≤ tour LB ≤ tour UB ≤ 2·MST-ish; and the
	// closed tour is at least the open walk from any of its sites.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, sites := randomGraphMetric(r, 4+r.Intn(12))
		b := Tour(g, sites)
		if b.LB > b.UB {
			return false
		}
		uniq := dedupe(sites, -1)
		if len(uniq) < 2 {
			return b.LB == 0
		}
		mst := MSTWeight(g, uniq)
		return b.LB >= mst && b.UB <= 2*mst+1 || b.Exact
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSetUsesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.New(60)
	perm := r.Perm(60)
	for i := 1; i < 60; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	sites := make([]graph.NodeID, ExactLimit+10)
	for i := range sites {
		sites[i] = graph.NodeID(r.Intn(60))
	}
	w := Walk(g, 0, sites)
	if w.Exact {
		t.Fatal("large walk claimed exact")
	}
	if w.LB > w.UB || w.LB <= 0 {
		t.Fatalf("large walk bounds broken: %+v", w)
	}
	uniq := dedupe(sites, 0)
	mst := MSTWeight(g, append([]graph.NodeID{0}, uniq...))
	if w.LB != mst {
		t.Fatalf("large walk LB %d != MST %d", w.LB, mst)
	}
	if w.UB > 2*mst {
		t.Fatalf("large walk UB %d exceeds 2·MST %d", w.UB, 2*mst)
	}
	tour := Tour(g, sites)
	if tour.Exact || tour.LB > tour.UB {
		t.Fatalf("large tour bounds broken: %+v", tour)
	}
}

func TestTwoOptImprovesCrossing(t *testing.T) {
	// On a line, the NN path from home=0 over {10, 1, 11, 2} may zigzag;
	// 2-opt must bring it to the optimal monotone sweep.
	m := lineMetric{}
	path := []graph.NodeID{10, 1, 11, 2}
	improved := twoOptPath(m, 0, append([]graph.NodeID(nil), path...))
	if got := pathLen(m, 0, improved); got != 11 {
		t.Fatalf("2-opt path length = %d, want 11 (0→1→2→10→11)", got)
	}
}

// TestWalkBracketBracketsOptimumProperty: WalkBracket's LB is the MST
// over home and the sites, and LB ≤ the exact optimal walk ≤ UB ≤ 2·LB,
// with Exact set exactly when the bracket closes.
func TestWalkBracketBracketsOptimumProperty(t *testing.T) {
	var s Solver
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, sites := randomGraphMetric(r, 4+r.Intn(12))
		home := graph.NodeID(r.Intn(g.NumNodes()))
		b := s.WalkBracket(g, home, sites)
		opt := Walk(g, home, sites).LB
		mst := MSTWeight(g, append([]graph.NodeID{home}, dedupe(sites, home)...))
		return b.LB == mst && b.LB <= opt && opt <= b.UB && b.UB <= 2*b.LB && b.Exact == (b.LB == b.UB)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkBracketTrivialAndClosed(t *testing.T) {
	m := lineMetric{}
	var s Solver
	if b := s.WalkBracket(m, 3, []graph.NodeID{3, 3}); b != (Bounds{Exact: true}) {
		t.Fatalf("walk to home only = %+v", b)
	}
	if b := s.WalkBracket(m, 3, []graph.NodeID{7, 7}); b != (Bounds{LB: 4, UB: 4, Exact: true}) {
		t.Fatalf("single-site walk = %+v, want exact 4", b)
	}
	// Sites on one side of home: the MST is the path itself, so the
	// nearest-neighbor walk closes the bracket.
	if b := s.WalkBracket(m, 0, []graph.NodeID{9, 2, 5}); b != (Bounds{LB: 9, UB: 9, Exact: true}) {
		t.Fatalf("one-sided walk = %+v, want exact 9", b)
	}
	// Sites on both sides of home 5: the MST weighs 10, the best walk
	// (5→3→13) 12.
	if b := s.WalkBracket(m, 5, []graph.NodeID{3, 13}); b.LB != 10 || b.UB != 12 || b.Exact {
		t.Fatalf("two-sided walk = %+v, want open [10,12]", b)
	}
}

// TestWalkBracketZeroAlloc: on a warm solver, brackets of site sets no
// larger than the high-water mark allocate nothing.
func TestWalkBracketZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := graph.New(64)
	perm := r.Perm(64)
	for i := 1; i < 64; i++ {
		g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(4))
	}
	g.Precompute(1)
	small := []graph.NodeID{5, 17, 33, 2, 60, 41}
	large := make([]graph.NodeID, ExactLimit+8)
	for i := range large {
		large[i] = graph.NodeID(r.Intn(64))
	}
	var s Solver
	s.WalkBracket(g, 0, large)
	allocs := testing.AllocsPerRun(200, func() {
		s.WalkBracket(g, 0, small)
		s.WalkBracket(g, 7, large)
	})
	if allocs != 0 {
		t.Fatalf("warm WalkBracket allocates %.1f allocs/op, want 0", allocs)
	}
}
