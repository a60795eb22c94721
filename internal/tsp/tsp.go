// Package tsp bounds the shortest walks and TSP tours that objects follow
// through the communication graph. The paper's execution-time lower bounds
// rest on the longest shortest walk of any object (the walk starts at the
// object's home and visits every requesting transaction); optimal TSP tour
// lengths are within a factor two of shortest walks.
//
// All routines work over an abstract graph.Metric, which satisfies the
// triangle inequality because it is a shortest-path metric. Small site
// sets are solved exactly with Held–Karp dynamic programming; larger sets
// get certified bounds: MST weight ≤ optimal walk ≤ optimal tour ≤ 2·MST,
// with a nearest-neighbor + 2-opt heuristic tightening the upper side.
// Solver.WalkBracket returns that certified bracket at any size without
// solving exactly, so callers can skip exact solves that cannot matter.
//
// The Held–Karp tables are the hot allocation of the whole measurement
// path (2^q·q int64 cells per solve — 8 MiB at q = 16), so the exact
// solver lives on a reusable Solver: one per worker amortizes the tables
// across every object of an instance. The package-level Walk and Tour
// remain as convenience wrappers over a throwaway Solver.
package tsp

import (
	"math"
	"math/bits"

	"dtmsched/internal/graph"
)

// ExactLimit is the largest number of sites solved exactly by Held–Karp;
// beyond it, Walk and Tour return certified bounds instead.
const ExactLimit = 16

// Bounds brackets an optimal length: LB ≤ OPT ≤ UB. Exact results have
// LB == UB.
type Bounds struct {
	LB, UB int64
	// Exact is true when the bounds come from exhaustive dynamic
	// programming rather than MST/heuristic estimates.
	Exact bool
}

// Solver computes Walk and Tour bounds with reusable scratch: the DP
// table, the flat pairwise-distance matrix, and an epoch-stamped dedupe
// buffer all persist across calls, so solving many site sets (one per
// object of an instance) allocates only on high-water-mark growth. A
// Solver is not safe for concurrent use; parallel callers keep one per
// worker. The zero value is ready to use.
type Solver struct {
	dp    []int64        // Held–Karp table, 2^q·q cells
	d     []int64        // flat pairwise distances, row-major
	best  []int64        // Prim's per-node attachment costs
	uniq  []graph.NodeID // dedupe output buffer
	rest  []graph.NodeID // nearest-neighbor unvisited sites
	path  []graph.NodeID // nearest-neighbor / 2-opt path
	stamp []int64        // per-node visit stamps for O(q) dedupe
	epoch int64
}

// NewSolver returns an empty solver; scratch grows on first use.
func NewSolver() *Solver { return &Solver{} }

// Walk bounds the shortest walk that starts at home and visits every node
// in sites (an open Hamiltonian path on the metric completion, fixed
// start). Duplicate sites and sites equal to home are harmless. Results
// are identical to the package-level Walk.
func (s *Solver) Walk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	sites = s.dedupe(sites, home)
	q := len(sites)
	switch {
	case q == 0:
		return Bounds{Exact: true}
	case q == 1:
		d := m.Dist(home, sites[0])
		return Bounds{LB: d, UB: d, Exact: true}
	case q <= ExactLimit:
		opt := s.heldKarpPath(m, home, sites)
		return Bounds{LB: opt, UB: opt, Exact: true}
	}
	mst := s.mst(m, home, sites)
	ub := s.heuristicWalk(m, home, sites)
	if double := 2 * mst; double < ub {
		ub = double
	}
	return Bounds{LB: mst, UB: ub}
}

// WalkBracket brackets the shortest home-rooted walk through sites
// without solving it exactly, at any site count: LB is the minimum
// spanning tree weight over home and the sites (every walk through them
// contains a spanning tree), UB the shorter of a nearest-neighbor + 2-opt
// walk and 2·MST (the tree walked depth-first). Exact reports a closed
// bracket (LB == UB); the heuristic is skipped when 2·MST already closes
// it. It costs O(q²) distance queries and, on a warm solver, allocates
// nothing — the cheap certificate that lets callers skip Held–Karp solves
// that cannot change a maximum.
func (s *Solver) WalkBracket(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	sites = s.dedupe(sites, home)
	switch len(sites) {
	case 0:
		return Bounds{Exact: true}
	case 1:
		d := m.Dist(home, sites[0])
		return Bounds{LB: d, UB: d, Exact: true}
	}
	mst := s.mst(m, home, sites)
	ub := 2 * mst
	if ub > mst {
		if h := s.heuristicWalk(m, home, sites); h < ub {
			ub = h
		}
	}
	return Bounds{LB: mst, UB: ub, Exact: mst == ub}
}

// Tour bounds the optimal closed TSP tour through all sites (no fixed
// start). The paper's Theorem 6 measures objects' TSP tour lengths.
// Results are identical to the package-level Tour.
func (s *Solver) Tour(m graph.Metric, sites []graph.NodeID) Bounds {
	sites = s.dedupe(sites, -1)
	q := len(sites)
	switch {
	case q <= 1:
		return Bounds{Exact: true}
	case q == 2:
		d := 2 * m.Dist(sites[0], sites[1])
		return Bounds{LB: d, UB: d, Exact: true}
	case q <= ExactLimit:
		opt := s.heldKarpTour(m, sites)
		return Bounds{LB: opt, UB: opt, Exact: true}
	}
	mst := s.mst(m, sites[0], sites[1:])
	path := s.nearestNeighborPath(m, sites[0], sites[1:])
	path = twoOptPath(m, sites[0], path)
	var ub int64 = m.Dist(sites[0], path[len(path)-1])
	ub += pathLen(m, sites[0], path)
	if double := 2 * mst; double < ub {
		ub = double
	}
	return Bounds{LB: mst, UB: ub}
}

// Walk bounds the shortest home-rooted walk through sites with a
// throwaway Solver. Callers solving many site sets should hold a Solver.
func Walk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) Bounds {
	var s Solver
	return s.Walk(m, home, sites)
}

// Tour bounds the optimal closed tour through sites with a throwaway
// Solver. Callers solving many site sets should hold a Solver.
func Tour(m graph.Metric, sites []graph.NodeID) Bounds {
	var s Solver
	return s.Tour(m, sites)
}

// MSTWeight returns the minimum spanning tree weight over sites under
// metric m, via Prim's algorithm in O(q²) time and O(q) space.
func MSTWeight(m graph.Metric, sites []graph.NodeID) int64 {
	if len(sites) <= 1 {
		return 0
	}
	var s Solver
	return s.mst(m, sites[0], sites[1:])
}

// mst returns the minimum spanning tree weight over root and sites (Prim's
// algorithm, O(q²) time) on the solver's scratch. The weight of a minimum
// spanning tree does not depend on the order of its nodes.
func (s *Solver) mst(m graph.Metric, root graph.NodeID, sites []graph.NodeID) int64 {
	q := len(sites) + 1
	const inf = int64(math.MaxInt64)
	best := growI64(s.best, q) // best[i] < 0 marks node i as in the tree
	s.best = best
	at := func(i int) graph.NodeID {
		if i == 0 {
			return root
		}
		return sites[i-1]
	}
	for i := range best {
		best[i] = inf
	}
	best[0] = 0
	var total int64
	for iter := 0; iter < q; iter++ {
		u, bu := -1, inf
		for i := 0; i < q; i++ {
			if b := best[i]; b >= 0 && b < bu {
				u, bu = i, b
			}
		}
		best[u] = -1
		total += bu
		nu := at(u)
		for i := 0; i < q; i++ {
			if best[i] >= 0 {
				if d := m.Dist(nu, at(i)); d < best[i] {
					best[i] = d
				}
			}
		}
	}
	return total
}

// dedupe removes duplicates (and, when skip ≥ 0, sites equal to skip)
// preserving first-occurrence order, via per-node epoch stamps: O(q) with
// no per-call map. The returned slice is the solver's buffer, valid until
// the next call.
func (s *Solver) dedupe(sites []graph.NodeID, skip graph.NodeID) []graph.NodeID {
	s.epoch++
	out := s.uniq[:0]
	for _, v := range sites {
		if v == skip {
			continue
		}
		if int(v) >= len(s.stamp) {
			grown := make([]int64, int(v)+1)
			copy(grown, s.stamp)
			s.stamp = grown
		}
		if s.stamp[v] == s.epoch {
			continue
		}
		s.stamp[v] = s.epoch
		out = append(out, v)
	}
	s.uniq = out
	return out
}

// growI64 returns a length-n int64 buffer, reusing buf's storage when it
// is large enough.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// fillPairwise populates the solver's flat distance matrix over nodes
// (row-major, stride len(nodes)); nodes[0] is the walk home / tour start.
func (s *Solver) fillPairwise(m graph.Metric, home graph.NodeID, sites []graph.NodeID) []int64 {
	n := len(sites) + 1
	d := growI64(s.d, n*n)
	s.d = d
	at := func(i int) graph.NodeID {
		if i == 0 {
			return home
		}
		return sites[i-1]
	}
	for i := 0; i < n; i++ {
		row := d[i*n : (i+1)*n]
		ni := at(i)
		for j := 0; j < n; j++ {
			if i == j {
				row[j] = 0
				continue
			}
			row[j] = m.Dist(ni, at(j))
		}
	}
	return d
}

// heldKarpPath solves the fixed-start open path exactly:
// dp[S][j] = cheapest walk from home visiting exactly set S, ending at j.
// The inner loops iterate only the set bits of S (ends) and of its
// complement (extensions), so the work is Σ_S |S|·(q−|S|) = 2^q·q²/4
// transitions instead of 2^q·q² index probes.
func (s *Solver) heldKarpPath(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	q := len(sites)
	d := s.fillPairwise(m, home, sites) // index 0 = home, stride q+1
	stride := q + 1
	size := 1 << q
	const inf = int64(math.MaxInt64) / 2
	dp := growI64(s.dp, size*q)
	s.dp = dp
	for i := range dp {
		dp[i] = inf
	}
	for j := 0; j < q; j++ {
		dp[(1<<j)*q+j] = d[j+1] // d[home][j]
	}
	full := uint32(size - 1)
	for set := 1; set < size; set++ {
		base := set * q
		rest := full &^ uint32(set)
		if rest == 0 {
			continue
		}
		for ends := uint32(set); ends != 0; ends &= ends - 1 {
			j := int(bits.TrailingZeros32(ends))
			cur := dp[base+j]
			if cur >= inf {
				continue
			}
			row := d[(j+1)*stride:]
			for rem := rest; rem != 0; rem &= rem - 1 {
				nxt := int(bits.TrailingZeros32(rem))
				if c := cur + row[nxt+1]; c < dp[(set|1<<nxt)*q+nxt] {
					dp[(set|1<<nxt)*q+nxt] = c
				}
			}
		}
	}
	best := inf
	for j := 0; j < q; j++ {
		if c := dp[(size-1)*q+j]; c < best {
			best = c
		}
	}
	return best
}

// heldKarpTour solves the closed tour exactly by fixing sites[0] as the
// start/end; same bit-iterated transition structure as heldKarpPath.
func (s *Solver) heldKarpTour(m graph.Metric, sites []graph.NodeID) int64 {
	q := len(sites) - 1                         // remaining sites after fixing sites[0]
	d := s.fillPairwise(m, sites[0], sites[1:]) // index 0 = start, stride q+1
	stride := q + 1
	size := 1 << q
	const inf = int64(math.MaxInt64) / 2
	dp := growI64(s.dp, size*q)
	s.dp = dp
	for i := range dp {
		dp[i] = inf
	}
	for j := 0; j < q; j++ {
		dp[(1<<j)*q+j] = d[j+1] // d[start][j]
	}
	full := uint32(size - 1)
	for set := 1; set < size; set++ {
		base := set * q
		rest := full &^ uint32(set)
		if rest == 0 {
			continue
		}
		for ends := uint32(set); ends != 0; ends &= ends - 1 {
			j := int(bits.TrailingZeros32(ends))
			cur := dp[base+j]
			if cur >= inf {
				continue
			}
			row := d[(j+1)*stride:]
			for rem := rest; rem != 0; rem &= rem - 1 {
				nxt := int(bits.TrailingZeros32(rem))
				if c := cur + row[nxt+1]; c < dp[(set|1<<nxt)*q+nxt] {
					dp[(set|1<<nxt)*q+nxt] = c
				}
			}
		}
	}
	best := inf
	for j := 0; j < q; j++ {
		if c := dp[(size-1)*q+j] + d[(j+1)*stride]; c < best {
			best = c
		}
	}
	return best
}

// heuristicWalk returns the length of a nearest-neighbor walk from home
// through sites, improved by 2-opt.
func (s *Solver) heuristicWalk(m graph.Metric, home graph.NodeID, sites []graph.NodeID) int64 {
	path := s.nearestNeighborPath(m, home, sites)
	return pathLen(m, home, twoOptPath(m, home, path))
}

// nearestNeighborPath orders sites by repeatedly hopping to the closest
// unvisited site, starting from home. The returned slice is the solver's
// buffer, valid until the next call.
func (s *Solver) nearestNeighborPath(m graph.Metric, home graph.NodeID, sites []graph.NodeID) []graph.NodeID {
	rest := append(s.rest[:0], sites...)
	s.rest = rest
	out := s.path[:0]
	cur := home
	for len(rest) > 0 {
		bi, bd := 0, m.Dist(cur, rest[0])
		for i := 1; i < len(rest); i++ {
			if d := m.Dist(cur, rest[i]); d < bd {
				bi, bd = i, d
			}
		}
		cur = rest[bi]
		out = append(out, cur)
		rest[bi] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
	}
	s.path = out
	return out
}

// twoOptPath improves an open path (fixed start at home) by reversing
// segments while any reversal shortens it.
func twoOptPath(m graph.Metric, home graph.NodeID, path []graph.NodeID) []graph.NodeID {
	n := len(path)
	if n < 3 {
		return path
	}
	prev := func(i int) graph.NodeID {
		if i == 0 {
			return home
		}
		return path[i-1]
	}
	improved := true
	for rounds := 0; improved && rounds < 32; rounds++ {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				// Reverse path[i..j]: edges (prev(i), path[i]) and
				// (path[j], path[j+1]) become (prev(i), path[j]) and
				// (path[i], path[j+1]).
				oldCost := m.Dist(prev(i), path[i])
				newCost := m.Dist(prev(i), path[j])
				if j+1 < n {
					oldCost += m.Dist(path[j], path[j+1])
					newCost += m.Dist(path[i], path[j+1])
				}
				if newCost < oldCost {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						path[a], path[b] = path[b], path[a]
					}
					improved = true
				}
			}
		}
	}
	return path
}

func pathLen(m graph.Metric, home graph.NodeID, path []graph.NodeID) int64 {
	var total int64
	cur := home
	for _, v := range path {
		total += m.Dist(cur, v)
		cur = v
	}
	return total
}

// dedupe removes duplicates and (when skip ≥ 0) any site equal to skip.
// Map-based; the Solver's stamp dedupe is the amortized equivalent.
func dedupe(sites []graph.NodeID, skip graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]struct{}, len(sites))
	out := make([]graph.NodeID, 0, len(sites))
	for _, s := range sites {
		if s == skip {
			continue
		}
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}
