package lower

import (
	"sync"
	"sync/atomic"

	"dtmsched/internal/tm"
)

// Oracle caches certified bounds per instance. The bound depends only on
// the instance, yet batch sweeps run many jobs (algorithms × trials)
// against the same instance and historically recomputed it per job; the
// oracle makes every query after the first a lock-free pointer load.
//
// Each instance gets an entry whose bound is computed exactly once: the
// first query runs ComputeOpts under the entry's sync.Once, concurrent
// first queries for the same instance wait for it instead of duplicating
// the Held–Karp work, and the result is published through an
// atomic.Pointer[Bound] so every later query is a lock-free pointer load
// that allocates nothing. The published Bound is immutable.
//
// The oracle holds its instances live; scope one per batch or sweep
// rather than per process so retired instances can be collected.
type Oracle struct {
	opt     Options
	entries sync.Map // *tm.Instance → *oracleEntry

	computations atomic.Int64
	hits         atomic.Int64
}

type oracleEntry struct {
	once sync.Once
	b    atomic.Pointer[Bound]
}

// NewOracle returns an oracle computing misses with ComputeOpts(in, opt).
func NewOracle(opt Options) *Oracle {
	return &Oracle{opt: opt}
}

// Get returns the instance's certified bound and whether it was served
// from cache; only the one query that computed the bound reports false.
// The returned Bound is shared and must not be mutated.
func (o *Oracle) Get(in *tm.Instance) (*Bound, bool) {
	if ei, ok := o.entries.Load(in); ok {
		if b := ei.(*oracleEntry).b.Load(); b != nil {
			o.hits.Add(1)
			return b, true
		}
	}
	ei, _ := o.entries.LoadOrStore(in, &oracleEntry{})
	e := ei.(*oracleEntry)
	computed := false
	e.once.Do(func() {
		b := ComputeOpts(in, o.opt)
		o.computations.Add(1)
		e.b.Store(&b)
		computed = true
	})
	if !computed {
		o.hits.Add(1)
	}
	return e.b.Load(), !computed
}

// Stats reports how many bounds were computed versus served from cache.
func (o *Oracle) Stats() (computations, hits int64) {
	return o.computations.Load(), o.hits.Load()
}
