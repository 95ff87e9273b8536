package exec

import (
	"weak"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// Plan is the operand-structure-dependent half of an execution: the
// tile partition, the accumulator row-capacity bound and the mask rows'
// column spans the dense window is sized from. Building one
// costs O(nnz) (Eq. 2 row-work estimation plus a prefix sum for
// FLOP-balanced tiles); the engine caches plans so iterative callers
// pay that once per operand structure.
//
// Cached plans are shared read-only across concurrent runs — nothing in
// the kernel mutates a Tile — and survive operand mutation harmlessly:
// the plan key fixes rows, so a stale hit still partitions exactly
// [0, rows); at worst the FLOP balance is off, accumulators grow on
// demand and a dense window spills a row it was not sized for. For
// SpGEMM, correctness never depends on plan freshness;
// triangular-solve plans are the exception — their wave order encodes
// dependencies, so their keys content-hash the structure (see
// PlanKey.SolveHash) instead of relying on identity alone.
type Plan struct {
	Tiles  []tiling.Tile
	RowCap int64
	Spans  accum.Spans
	// Solve is the level-schedule payload of a triangular-solve plan;
	// nil for SpGEMM plans.
	Solve *SolvePlan
	// MergeView is a lower-view plan's row-kernel verdict
	// (internal/core, PriceView): the merge kernel, which only a run
	// whose caller states the operand's symmetry may take, is the
	// cheaper.
	MergeView bool
}

// SolvePlan is the dependency-wave half of a triangular-solve plan: the
// wave order of the rows, the FLOP-balanced tile partition of that
// order, the wave coarsening over those tiles, and the verdict whether
// waves pay at all. Shared read-only across runs like every cached
// plan.
type SolvePlan struct {
	// Order maps execution slot to row index: the rows grouped by wave,
	// in substitution order within each wave. Tiles partition slots, not
	// raw row indices.
	Order []sparse.Index
	// Tiles partitions [0, len(Order)) into row-work-balanced tiles
	// aligned to wave boundaries.
	Tiles []tiling.Tile
	// Waves groups consecutive tiles into dependency waves: every slot
	// in a wave depends only on slots in strictly earlier waves or on
	// earlier slots of its own tile.
	Waves []sched.Wave
	// Levels is the raw level-set depth before coarsening; SerialWaves
	// counts single-tile waves.
	Levels, SerialWaves int
	// Flops is the Eq. 2 total row work of the solve.
	Flops int64
	// WaveGrain is the row work per tile wide levels were split at.
	WaveGrain int64
	// Serial is the solve policy's verdict for this structure and worker
	// count (internal/core, above buildSolvePlan): an automatic solve
	// runs in substitution order on one worker when it is set. SerialNs
	// and WavesNs are the predicted times it was decided from.
	Serial            bool
	SerialNs, WavesNs float64
}

// OperandID fingerprints one operand: a weak pointer to its header plus
// the structural dimensions a plan depends on. The weak pointer keeps
// identity without keeping the operand reachable, so a cached plan never
// pins a matrix its caller has retired. It points at the header's Rows
// field (the header's address), so the key has one concrete type and
// costs no allocation once the header has a weak handle.
//
// The same key names two matrices only when one header is refilled in
// place with equal rows, cols and nnz, as a header reused by …Into calls
// routinely is; a new header at a collected one's address gets a new
// weak pointer. A stale SpGEMM plan is still correct: its tiles
// partition exactly [0, rows), an accumulator's hash table grows on
// demand, and a dense window spills a row it was not sized for
// (accum.NewDenseWindow). Only the balance suffers. Solve plans add
// PlanKey.SolveHash.
type OperandID struct {
	ID         weak.Pointer[int]
	Rows, Cols int
	NNZ        int64
}

// IDOf fingerprints a CSR operand. Nil matrices yield the zero ID.
//
//spgemm:hotpath
func IDOf[T sparse.Number](m *sparse.CSR[T]) OperandID {
	if m == nil {
		return OperandID{}
	}
	return OperandID{ID: weak.Make(&m.Rows), Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}
}

// PlanKey fingerprints everything a plan's content depends on: the
// three operands and the plan-shaping knobs. Worker counts and
// schedule policy deliberately do not appear — the plan pipeline is
// bit-identical across them — except in a solve plan's SolveHash.
type PlanKey struct {
	M, A, B OperandID
	Tiles   int
	Tiling  tiling.Strategy
	// Vanilla captures whether the row capacity was sized by the flop
	// upper bound (vanilla iteration) or the mask row maximum.
	Vanilla bool
	// Lower keys a lower-view plan, which carries a verdict.
	Lower bool
	// Solve discriminates triangular-solve plans from SpGEMM plans in
	// the shared cache: 0 for SpGEMM, otherwise an encoding of the solve
	// kind (lower/upper) plus one.
	Solve uint8
	// SolveHash fingerprints what a solve plan's correctness depends on:
	// the operand's structure, plus the coarsening knobs and the worker
	// count its serial-or-waves verdict was reached for. A solve plan's wave order encodes dependencies, so — unlike
	// SpGEMM — a stale hit would be a correctness bug, not a balance
	// wobble; content-hashing closes the recycled-address hole. Zero for
	// SpGEMM plans.
	SolveHash uint64
}

// planEntry is one cached plan with its LRU stamp.
type planEntry struct {
	plan  Plan
	stamp uint64
}

// PlanLookup returns the cached plan for key without building: the
// allocation-free fast path for callers whose build closure would
// otherwise be constructed (and heap-escape) on every call. A hit
// counts toward PlanHits and refreshes the LRU stamp; a miss counts
// nothing — the follow-up Plan call does.
//
//spgemm:hotpath
func (e *Engine) PlanLookup(key PlanKey) (Plan, bool) {
	if e == nil || e.maxPlans() == 0 {
		return Plan{}, false
	}
	e.mu.Lock()
	ent, ok := e.plans[key]
	var plan Plan
	if ok {
		e.planClock++
		ent.stamp = e.planClock
		plan = ent.plan
	}
	e.mu.Unlock()
	if !ok {
		return Plan{}, false
	}
	e.planHits.Add(1)
	return plan, true
}

// Plan returns the cached plan for key, or builds, caches and returns
// it. A nil engine (or a disabled cache) always builds. Build errors
// are returned uncached. Safe for concurrent use; two racing misses on
// one key both build and the first to store wins.
//
//spgemm:hotpath
func (e *Engine) Plan(key PlanKey, build func() (Plan, error)) (Plan, error) {
	if e == nil || e.maxPlans() == 0 {
		return build()
	}
	e.mu.Lock()
	if ent, ok := e.plans[key]; ok {
		e.planClock++
		ent.stamp = e.planClock
		plan := ent.plan
		e.mu.Unlock()
		e.planHits.Add(1)
		return plan, nil
	}
	e.mu.Unlock()
	e.planMisses.Add(1)
	p, err := build()
	if err != nil {
		return Plan{}, err
	}
	// Plan-store injection: an error or cancel fault skips caching —
	// the freshly built plan is still returned, degrading to per-call
	// planning rather than failing the run. Panic faults propagate.
	if k := chaos.Step(e.cfg.Chaos, chaos.PlanStore); k != chaos.KindNone {
		return p, nil
	}
	e.mu.Lock()
	if _, ok := e.plans[key]; !ok {
		e.planClock++
		//lint:ignore hotpathalloc miss path caches the freshly built plan
		e.plans[key] = &planEntry{plan: p, stamp: e.planClock}
		for len(e.plans) > e.maxPlans() {
			e.evictPlanLocked()
		}
	}
	e.mu.Unlock()
	return p, nil
}

// evictPlanLocked drops the least recently used plan. Caller holds e.mu.
func (e *Engine) evictPlanLocked() {
	var victim PlanKey
	best := ^uint64(0)
	found := false
	for k, ent := range e.plans {
		if ent.stamp < best {
			best, victim, found = ent.stamp, k, true
		}
	}
	if found {
		delete(e.plans, victim)
	}
}
