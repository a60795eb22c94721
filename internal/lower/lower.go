// Package lower computes certified execution-time lower bounds for problem
// instances. Every approximation ratio the benchmark harness reports uses
// these bounds as its denominator, exactly as the paper's proofs do:
//
//   - ℓ = max objects' requester counts: an object's requesters execute at
//     pairwise-distinct steps separated by ≥ 1, so the makespan is ≥ ℓ
//     (Theorem 1's lower bound);
//   - the longest shortest walk of any object from its home through all of
//     its requesters (the TSP-style bound of Sections 4 and 8);
//   - h_max, the largest distance between two conflicting transactions
//     (Section 2.3).
//
// Because these are true lower bounds on the optimum, measured ratios
// (makespan / bound) can only overstate an algorithm's distance from
// optimal, never understate it.
//
// The bound depends only on the instance, so the package provides three
// cost tiers: Compute (serial, full witnesses — the original API),
// ComputeOpts (worker-pooled per-object solves with a canonical-site-set
// memo), and Oracle (per-instance single-flight computation and
// publication, so repeated queries for the same instance cost a pointer
// load). Every tier gives a byte-identical Bound for a given instance and
// Options at every worker count.
//
// ComputeOpts has two paths, chosen by Options.Witness:
//
//   - the witness path solves every object's walk and its TSP tour
//     (Theorem 6's measure) and fills PerObject, MaxWalkUB and MaxTour*;
//   - the scalar path solves walks only, and only those that can raise
//     the maximum. Each walk first gets a certified bracket MST ≤ walk ≤ UB
//     (tsp.Solver.WalkBracket); walks are visited by descending UB, and a
//     walk whose UB is at most the largest walk LB found so far is
//     skipped, since its LB ≤ UB cannot raise that maximum. Held–Karp
//     runs only on the open brackets left. Value, MaxUse, MaxWalkLB,
//     ExactObjects and BoundedObjects equal the witness path's;
//     MaxWalkUB, MaxTourLB, MaxTourUB and PerObject are left zero.
package lower

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/tsp"
)

// ObjectDetail records the per-object quantities entering the bound.
type ObjectDetail struct {
	Object tm.ObjectID
	// Users is |A_i|: how many transactions request the object.
	Users int
	// Walk bounds the object's shortest home-rooted walk through all
	// its requesters.
	Walk tsp.Bounds
	// Tour bounds the object's optimal TSP tour through its requesters
	// (Theorem 6's measure).
	Tour tsp.Bounds
}

// LB returns the object's certified execution-time lower bound.
func (d ObjectDetail) LB() int64 {
	lb := int64(d.Users)
	if d.Walk.LB > lb {
		lb = d.Walk.LB
	}
	return lb
}

// Bound is the instance-level certified lower bound with its witnesses.
type Bound struct {
	// Value is the lower bound on the optimal makespan, ≥ 1 whenever
	// the instance has at least one transaction.
	Value int64
	// MaxUse is ℓ.
	MaxUse int
	// MaxWalkLB / MaxWalkUB bracket the longest shortest object walk.
	// MaxWalkUB is zero on the scalar path (Options.Witness false).
	MaxWalkLB, MaxWalkUB int64
	// MaxTourLB / MaxTourUB bracket the longest optimal object TSP tour.
	// Both are zero on the scalar path.
	MaxTourLB, MaxTourUB int64
	// ExactObjects counts requested objects whose walk is solved exactly
	// (≤ tsp.ExactLimit unique requester sites besides the home);
	// BoundedObjects counts those that get MST/heuristic bounds instead.
	// Both count by site set, so they are the same on either path even
	// though the scalar path skips most solves.
	ExactObjects, BoundedObjects int
	// PerObject has one entry per object that is requested at all.
	// Empty on the scalar path.
	PerObject []ObjectDetail
}

// Options controls how ComputeOpts runs. The zero value is the serial
// scalar path.
type Options struct {
	// Workers is the number of goroutines solving per-object TSP work;
	// values ≤ 1 solve serially. The resulting Bound is byte-identical
	// at every worker count.
	Workers int
	// Witness selects the witness path: every object's walk and tour
	// solved, Bound.PerObject, MaxWalkUB and MaxTour* filled. Left false,
	// ComputeOpts takes the pruned scalar path, which solves only the
	// walks that can raise the bound and leaves those fields zero;
	// callers that only need Value, MaxUse, MaxWalkLB or the object
	// counts (engines computing ratios) should leave it false.
	Witness bool
}

// Compute derives the certified bound for an instance with full
// witnesses, serially. Equivalent to ComputeOpts(in, Options{Witness:
// true}); kept as the stable original API.
func Compute(in *tm.Instance) Bound {
	return ComputeOpts(in, Options{Witness: true})
}

// solveItem is one unit of TSP work: a home-rooted walk or a closed tour
// over a site list. Objects with identical canonical site sets share one
// item (the exact Held–Karp result depends only on the set), so
// clique/star sweeps where many objects see the same requester sites
// solve each distinct set once.
type solveItem struct {
	walk  bool
	home  graph.NodeID
	sites []graph.NodeID
	res   tsp.Bounds
}

// objRef ties a requested object to its walk and tour items. exact
// reports whether the walk's unique non-home site count is within
// tsp.ExactLimit, which is exactly when tsp.Solver.Walk solves it by
// Held–Karp; tourI is -1 on the scalar path.
type objRef struct {
	obj          tm.ObjectID
	users        int
	exact        bool
	walkI, tourI int
}

// ComputeOpts derives the certified bound for an instance, on one of two
// paths chosen by opt.Witness. Per-object solves fan over opt.Workers
// goroutines (each with its own reusable tsp.Solver), and either path's
// result is byte-identical to its serial computation at every worker
// count.
func ComputeOpts(in *tm.Instance, opt Options) Bound {
	var (
		items    []solveItem
		refs     []objRef
		walkMemo = make(map[string]int)
		tourMemo = make(map[string]int)
		keyBuf   []byte
		canon    []graph.NodeID
	)
	for o := 0; o < in.NumObjects; o++ {
		oid := tm.ObjectID(o)
		users := in.Users(oid)
		if len(users) == 0 {
			continue
		}
		sites := make([]graph.NodeID, len(users))
		for i, id := range users {
			sites[i] = in.Txns[id].Node
		}
		home := in.Home[oid]

		// Canonical sorted site set. Exact solves (unique count ≤
		// tsp.ExactLimit) depend only on the set, so they memoize; the
		// heuristic path beyond the limit is order-dependent and must
		// see the original sequence to keep bounds byte-identical.
		canon = append(canon[:0], sites...)
		sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
		uniq := canon[:0]
		for i, v := range canon {
			if i > 0 && v == canon[i-1] {
				continue
			}
			uniq = append(uniq, v)
		}

		// Walk: home is removed by the solver, so the canonical walk
		// set excludes it.
		walkUniq := 0
		for _, v := range uniq {
			if v != home {
				walkUniq++
			}
		}
		ref := objRef{obj: oid, users: len(users), exact: walkUniq <= tsp.ExactLimit, tourI: -1}
		if ref.exact {
			keyBuf = keyBuf[:0]
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, uint64(home))
			for _, v := range uniq {
				if v != home {
					keyBuf = binary.LittleEndian.AppendUint64(keyBuf, uint64(v))
				}
			}
			if i, ok := walkMemo[string(keyBuf)]; ok {
				ref.walkI = i
			} else {
				set := make([]graph.NodeID, 0, walkUniq)
				for _, v := range uniq {
					if v != home {
						set = append(set, v)
					}
				}
				ref.walkI = len(items)
				items = append(items, solveItem{walk: true, home: home, sites: set})
				walkMemo[string(keyBuf)] = ref.walkI
			}
		} else {
			ref.walkI = len(items)
			items = append(items, solveItem{walk: true, home: home, sites: sites})
		}

		// Tour (witness path only): no fixed root; the canonical set is
		// the whole site set.
		switch {
		case !opt.Witness:
		case len(uniq) <= tsp.ExactLimit:
			keyBuf = keyBuf[:0]
			for _, v := range uniq {
				keyBuf = binary.LittleEndian.AppendUint64(keyBuf, uint64(v))
			}
			if i, ok := tourMemo[string(keyBuf)]; ok {
				ref.tourI = i
			} else {
				ref.tourI = len(items)
				items = append(items, solveItem{sites: append([]graph.NodeID(nil), uniq...)})
				tourMemo[string(keyBuf)] = ref.tourI
			}
		default:
			ref.tourI = len(items)
			items = append(items, solveItem{sites: sites})
		}

		refs = append(refs, ref)
	}

	b := Bound{}
	if opt.Witness {
		solveAll(in.Metric, items, opt.Workers)
		b.PerObject = make([]ObjectDetail, 0, len(refs))
	} else {
		b.MaxWalkLB = maxWalkLB(in.Metric, items, opt.Workers)
	}
	for _, r := range refs {
		if r.exact {
			b.ExactObjects++
		} else {
			b.BoundedObjects++
		}
		if r.users > b.MaxUse {
			b.MaxUse = r.users
		}
		if !opt.Witness {
			continue
		}
		d := ObjectDetail{
			Object: r.obj,
			Users:  r.users,
			Walk:   items[r.walkI].res,
			Tour:   items[r.tourI].res,
		}
		b.PerObject = append(b.PerObject, d)
		b.MaxWalkLB = max(b.MaxWalkLB, d.Walk.LB)
		b.MaxWalkUB = max(b.MaxWalkUB, d.Walk.UB)
		b.MaxTourLB = max(b.MaxTourLB, d.Tour.LB)
		b.MaxTourUB = max(b.MaxTourUB, d.Tour.UB)
	}
	b.Value = max(int64(b.MaxUse), b.MaxWalkLB)
	if b.Value < 1 && in.NumTxns() > 0 {
		b.Value = 1
	}
	return b
}

// solveAll fills every item's res, fanning over workers goroutines.
// Item results are independent of scheduling, so any interleaving yields
// the same Bound.
func solveAll(m graph.Metric, items []solveItem, workers int) {
	forEach(len(items), workers, func(s *tsp.Solver, i int) bool {
		it := &items[i]
		if it.walk {
			it.res = s.Walk(m, it.home, it.sites)
		} else {
			it.res = s.Tour(m, it.sites)
		}
		return true
	})
}

// maxWalkLB returns the largest walk lower bound over the walk items —
// exactly what solving every item with tsp.Solver.Walk and taking the
// maximum LB would give — while solving as few items as it can. Every
// item first gets a cheap certified bracket (tsp.Solver.WalkBracket):
// MST ≤ optimal walk ≤ UB. The running maximum starts at the largest
// bracket LB, which is already the final LB of every item over
// tsp.ExactLimit (Walk's LB there is the same MST). Items are then
// visited in descending-UB order and Held–Karp runs only on an item whose
// bracket is open and whose UB exceeds the running maximum: any other
// item's LB is ≤ its UB ≤ the maximum, so it cannot raise it. Since UBs
// only fall and the maximum only rises, the first skipped item ends the
// scan. The maximum only ever holds true item LBs, and the item attaining
// the true maximum is either solved or skipped at a maximum already equal
// to it, so the result is the same at every worker count and in every
// interleaving.
func maxWalkLB(m graph.Metric, items []solveItem, workers int) int64 {
	forEach(len(items), workers, func(s *tsp.Solver, i int) bool {
		it := &items[i]
		it.res = s.WalkBracket(m, it.home, it.sites)
		return true
	})
	var start int64
	order := make([]int, len(items))
	for i := range items {
		order[i] = i
		start = max(start, items[i].res.LB)
	}
	var best atomic.Int64
	best.Store(start)
	sort.Slice(order, func(a, b int) bool {
		ua, ub := items[order[a]].res.UB, items[order[b]].res.UB
		return ua > ub || ua == ub && order[a] < order[b]
	})
	forEach(len(order), workers, func(s *tsp.Solver, k int) bool {
		it := &items[order[k]]
		if it.res.UB <= best.Load() {
			return false
		}
		// A closed bracket is the item's LB; so is the MST of an item
		// past the Held–Karp limit (exact items hold their canonical
		// set, bounded ones their longer raw site sequence).
		if it.res.Exact || len(it.sites) > tsp.ExactLimit {
			return true
		}
		lb := s.Walk(m, it.home, it.sites).LB
		for cur := best.Load(); lb > cur; cur = best.Load() {
			if best.CompareAndSwap(cur, lb) {
				break
			}
		}
		return true
	})
	return best.Load()
}

// forEach calls f(s, i) for every i in [0, n) until f returns false,
// fanning over up to workers goroutines (≤ 1 runs serially), each with a
// private reusable solver s. A worker whose f returns false stops pulling
// indices; the others stop at their own false or when the indices run
// out.
func forEach(n, workers int, f func(s *tsp.Solver, i int) bool) {
	workers = min(workers, n)
	if workers <= 1 {
		s := tsp.NewSolver()
		for i := 0; i < n; i++ {
			if !f(s, i) {
				return
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := tsp.NewSolver()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !f(s, i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// ClusterSigma returns σ: the maximum, over objects, of the number of
// distinct clusters containing a requester of the object (Section 6).
// Distinct clusters are counted with one epoch-stamped slice reused
// across objects instead of a per-object map.
func ClusterSigma(in *tm.Instance, c *topology.ClusterGraph) int {
	sigma := 0
	stamp := make([]int, c.Alpha())
	for o := 0; o < in.NumObjects; o++ {
		epoch := o + 1
		count := 0
		for _, id := range in.Users(tm.ObjectID(o)) {
			cl := c.ClusterOf(in.Txns[id].Node)
			if stamp[cl] != epoch {
				stamp[cl] = epoch
				count++
			}
		}
		if count > sigma {
			sigma = count
		}
	}
	return sigma
}

// ClusterLB is the Section 6 lower bound Ω(σγ): an object used in σ
// clusters must cross σ−1 bridges of weight γ. It is implied by the walk
// bound but reported separately so experiments can show both.
func ClusterLB(in *tm.Instance, c *topology.ClusterGraph) int64 {
	sigma := ClusterSigma(in, c)
	if sigma <= 1 {
		return 1
	}
	return int64(sigma-1) * c.Gamma()
}

// StarSigma returns, for segment set index i of the star decomposition,
// the maximum number of distinct ray segments of V_i that any object must
// visit (the paper's σ_i). Distinct rays are counted with one
// epoch-stamped slice reused across objects instead of a per-object map.
func StarSigma(in *tm.Instance, s *topology.Star, segIndex int) int {
	segs := s.Segments(segIndex)
	if len(segs) == 0 {
		return 0
	}
	lo, hi := segs[0].Lo, segs[0].Hi
	sigma := 0
	stamp := make([]int, s.Alpha())
	for o := 0; o < in.NumObjects; o++ {
		epoch := o + 1
		count := 0
		for _, id := range in.Users(tm.ObjectID(o)) {
			ray, pos := s.RayOf(in.Txns[id].Node)
			if ray >= 0 && pos >= lo && pos <= hi && stamp[ray] != epoch {
				stamp[ray] = epoch
				count++
			}
		}
		if count > sigma {
			sigma = count
		}
	}
	return sigma
}
