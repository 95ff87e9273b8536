// Package exec is the execution-engine layer between the tiling/accum
// substrate and the core kernels: it owns the mutable state a masked
// SpGEMM needs at run time — accumulators and tile output buffers — and
// the structural plans (tile boundaries, accumulator row capacities)
// that are expensive to rebuild.
//
// The paper's measurement loop and every iterative graph algorithm
// built on the kernel re-execute C = M ⊙ (A × B) many times. Before
// this layer, each one-shot call re-planned the tiles (an O(nnz)
// prefix-sum pipeline) and re-allocated a dense-column-dimension
// accumulator per worker, per call. An Engine amortizes both across
// calls *and* across callers:
//
//   - Workspaces (see Workspace) are pooled in size-class buckets keyed
//     by (accumulator kind, marker bits, column-dimension class, row-cap
//     class). The pool retains the most recently used workspaces under
//     an LRU cap with exact hit/miss/steal/evict accounting; a
//     workspace released past the cap drops the oldest idle one. Their
//     tile staging is pooled apart, per value type (staging.go).
//   - Plans are cached under a structural fingerprint (operand identity
//     plus dimensions, nnz and the plan-shaping knobs), so repeated products
//     over unchanged structure skip planning entirely. A stale hit can
//     only mis-balance tiles, never mis-compute: any partition of the
//     row space is correct, and accumulators grow on demand.
//
// All Engine methods are safe for concurrent use; independent
// multiplications through one shared Engine never share a workspace.
// A nil *Engine disables pooling and caching: checkouts construct fresh
// state and Release is a no-op, which is exactly the pre-engine
// behavior of the one-shot kernels.
package exec

import (
	"reflect"
	"sync"
	"sync/atomic"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/obs"
)

// DefaultMaxIdle is the default cap on idle workspaces retained across
// all buckets.
const DefaultMaxIdle = 64

// DefaultMaxPlans is the default plan-cache capacity.
const DefaultMaxPlans = 64

// Config sizes an Engine's retention.
type Config struct {
	// MaxIdle caps the idle workspaces held across all size-class
	// buckets; the least recently returned workspace is dropped when the
	// cap is exceeded. 0 means DefaultMaxIdle; negative disables
	// retention.
	MaxIdle int
	// MaxPlans caps the plan cache; least recently used plans are
	// evicted. 0 means DefaultMaxPlans; negative disables plan caching.
	MaxPlans int
	// Chaos, when non-nil, arms the engine's fault-injection seams
	// (workspace checkout/release, plan-cache store). nil — the
	// production configuration — disables injection at the cost of one
	// nil check per seam crossing.
	Chaos chaos.Injector
}

// Engine is a concurrency-safe pool of execution workspaces plus a
// fingerprint-keyed plan cache. One process-wide Engine shared by every
// caller is the intended deployment; independent engines only split the
// reuse pool.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	buckets map[wsKey]*bucket
	idle    int
	clock   uint64

	// stagings pools tile staging sets per value type, apart from the
	// workspaces (staging.go); stagingIdle is their idle gauge.
	stagings    map[reflect.Type]*bucket
	stagingIdle int

	plans     map[PlanKey]*planEntry
	planClock uint64

	hits      atomic.Int64
	misses    atomic.Int64
	steals    atomic.Int64
	resizes   atomic.Int64
	evictions atomic.Int64

	planHits   atomic.Int64
	planMisses atomic.Int64

	quarantines atomic.Int64
}

// New returns an Engine with the given retention configuration.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:      cfg,
		buckets:  make(map[wsKey]*bucket),
		stagings: make(map[reflect.Type]*bucket),
		plans:    make(map[PlanKey]*planEntry),
	}
}

func (e *Engine) maxIdle() int {
	if e.cfg.MaxIdle == 0 {
		return DefaultMaxIdle
	}
	if e.cfg.MaxIdle < 0 {
		return 0
	}
	return e.cfg.MaxIdle
}

func (e *Engine) maxPlans() int {
	if e.cfg.MaxPlans == 0 {
		return DefaultMaxPlans
	}
	if e.cfg.MaxPlans < 0 {
		return 0
	}
	return e.cfg.MaxPlans
}

// PoolStats is a snapshot of an Engine's monotonic counters. Subtract
// two snapshots (Sub) to isolate the activity between them.
type PoolStats struct {
	// Hits counts checkouts served from the pool's exact size-class
	// bucket.
	Hits int64 `json:"hits"`
	// Misses counts checkouts that had to construct a new workspace.
	Misses int64 `json:"misses"`
	// Steals counts checkouts served by a compatible larger size-class
	// bucket when the exact bucket was empty.
	Steals int64 `json:"steals"`
	// Resizes counts in-place workspace growths (more workers, more
	// tiles, or a larger scratch dimension than the pooled instance had).
	Resizes int64 `json:"resizes"`
	// Evictions counts idle workspaces dropped because the pool held
	// MaxIdle.
	Evictions int64 `json:"evictions"`
	// PlanHits and PlanMisses count plan-cache outcomes.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	// Quarantines counts workspaces poisoned after a panic or
	// mid-run cancellation and dropped at Release instead of being
	// returned to the pool (see Workspace.Poison).
	Quarantines int64 `json:"quarantines"`
}

// Stats snapshots the engine's counters. Nil engines return zeros.
func (e *Engine) Stats() PoolStats {
	if e == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Steals:      e.steals.Load(),
		Resizes:     e.resizes.Load(),
		Evictions:   e.evictions.Load(),
		PlanHits:    e.planHits.Load(),
		PlanMisses:  e.planMisses.Load(),
		Quarantines: e.quarantines.Load(),
	}
}

// Sub returns the counter-wise difference s − o.
func (s PoolStats) Sub(o PoolStats) PoolStats {
	return PoolStats{
		Hits:        s.Hits - o.Hits,
		Misses:      s.Misses - o.Misses,
		Steals:      s.Steals - o.Steals,
		Resizes:     s.Resizes - o.Resizes,
		Evictions:   s.Evictions - o.Evictions,
		PlanHits:    s.PlanHits - o.PlanHits,
		PlanMisses:  s.PlanMisses - o.PlanMisses,
		Quarantines: s.Quarantines - o.Quarantines,
	}
}

// Counters maps the snapshot onto the stats/v6 pool block — the one
// place the engine's field names meet the recorder's.
func (s PoolStats) Counters() obs.PoolCounters {
	return obs.PoolCounters{
		Hits:        s.Hits,
		Misses:      s.Misses,
		Steals:      s.Steals,
		Resizes:     s.Resizes,
		Evictions:   s.Evictions,
		Quarantined: s.Quarantines,
		PlanHits:    s.PlanHits,
		PlanMisses:  s.PlanMisses,
	}
}

// Lookups is the total number of workspace checkouts in the snapshot.
func (s PoolStats) Lookups() int64 { return s.Hits + s.Steals + s.Misses }

// HitRate is the fraction of checkouts served without construction
// (hits + steals over lookups). A snapshot with no lookups reports 1.
func (s PoolStats) HitRate() float64 {
	l := s.Lookups()
	if l == 0 {
		return 1
	}
	return float64(s.Hits+s.Steals) / float64(l)
}

// Idle reports how many workspaces the pool holds idle — a gauge, not a counter,
// so it lives outside PoolStats. Nil engines report 0.
func (e *Engine) Idle() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.idle
}

// wsKey is a pool bucket identifier: the workspace's generic
// instantiation (value type × semiring), its accumulator kind and
// marker width, and the size classes of its state. Size classes are
// ceil-log2, so matrices of similar shape share buckets.
type wsKey struct {
	typ        reflect.Type
	kind       uint8
	markerBits uint8
	colsClass  uint8
	capClass   uint8
}

// idleWS is one pooled workspace with its LRU stamp.
type idleWS struct {
	ws    any
	stamp uint64
}

// bucket is one size-class bucket: a bounded LIFO list of idle
// workspaces.
type bucket struct {
	hot []idleWS
}

// pop takes the most recently returned entry off b. Caller holds e.mu;
// b holds at least one entry.
func (b *bucket) pop() any {
	n := len(b.hot) - 1
	ws := b.hot[n].ws
	b.hot[n] = idleWS{}
	b.hot = b.hot[:n]
	return ws
}

// get serves one workspace for key from the exact bucket, then by a
// steal from a compatible larger bucket. Returns nil on a miss
// (counted).
//
//spgemm:hotpath
func (e *Engine) get(key wsKey) any {
	e.mu.Lock()
	if b := e.buckets[key]; b != nil && len(b.hot) > 0 {
		ws := b.pop()
		e.idle--
		e.mu.Unlock()
		e.hits.Add(1)
		return ws
	}
	// Exact bucket empty: steal from the smallest compatible bucket
	// whose workspaces are at least as large in every dimension.
	var donor *bucket
	var donorKey wsKey
	for k, cand := range e.buckets {
		if k.typ != key.typ || k.kind != key.kind ||
			k.markerBits != key.markerBits ||
			k.colsClass < key.colsClass || k.capClass < key.capClass ||
			len(cand.hot) == 0 {
			continue
		}
		if donor == nil || k.colsClass < donorKey.colsClass ||
			(k.colsClass == donorKey.colsClass && k.capClass < donorKey.capClass) {
			donor, donorKey = cand, k
		}
	}
	if donor != nil {
		ws := donor.pop()
		e.idle--
		e.mu.Unlock()
		e.steals.Add(1)
		return ws
	}
	e.mu.Unlock()
	e.misses.Add(1)
	return nil
}

// put returns a workspace to its bucket, dropping the globally least
// recently returned idle workspace when the LRU cap is exceeded.
//
//spgemm:hotpath
func (e *Engine) put(key wsKey, ws any) {
	e.mu.Lock()
	b := e.buckets[key]
	if b == nil {
		//lint:ignore hotpathalloc first checkout of a new size class creates its bucket once
		b = &bucket{}
		e.buckets[key] = b
	}
	e.clock++
	b.hot = append(b.hot, idleWS{ws: ws, stamp: e.clock})
	e.idle++
	for e.idle > e.maxIdle() && dropOldest(e.buckets) {
		e.idle--
		e.evictions.Add(1)
	}
	e.mu.Unlock()
}

// dropOldest drops the oldest idle entry across buckets, reporting
// whether there was one. Caller holds e.mu.
func dropOldest[K comparable](buckets map[K]*bucket) bool {
	var victim *bucket
	best := ^uint64(0)
	for _, b := range buckets {
		if len(b.hot) > 0 && b.hot[0].stamp < best {
			best = b.hot[0].stamp
			victim = b
		}
	}
	if victim == nil {
		return false
	}
	n := copy(victim.hot, victim.hot[1:])
	victim.hot[n] = idleWS{}
	victim.hot = victim.hot[:n]
	return true
}
