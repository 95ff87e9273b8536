package exec

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

type sr = semiring.PlusTimes[float64]

func TestNilEngineCheckout(t *testing.T) {
	ws := Masked[float64, sr](nil, sr{}, accum.HashKind, 32, 128, 16, 4, 8)
	if ws == nil || len(ws.Accs) != 4 || len(ws.Outs) != 8 {
		t.Fatalf("nil-engine checkout malformed: %+v", ws)
	}
	ws.Release() // must be a no-op, not a panic
	if (*Workspace[float64, sr])(nil).Release(); false {
		t.Fatal("unreachable")
	}
	var e *Engine
	if s := e.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil engine stats = %+v, want zeros", s)
	}
	if e.Idle() != 0 {
		t.Fatal("nil engine idle != 0")
	}
	p, err := e.Plan(PlanKey{}, func() (Plan, error) { return Plan{RowCap: 7}, nil })
	if err != nil || p.RowCap != 7 {
		t.Fatalf("nil engine Plan = %+v, %v", p, err)
	}
}

func TestPoolHitMissResize(t *testing.T) {
	e := New(Config{})
	ws := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 100, 5, 2, 4)
	if got := e.Stats(); got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("first checkout stats = %+v, want 1 miss", got)
	}
	if ws.cols != 128 {
		t.Fatalf("cols class-rounded to %d, want 128", ws.cols)
	}
	ws.Release()
	if e.Idle() != 1 {
		t.Fatalf("idle = %d, want 1", e.Idle())
	}
	ws2 := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 100, 5, 2, 4)
	if ws2 != ws {
		t.Fatal("second checkout did not recycle the released workspace")
	}
	if got := e.Stats(); got.Hits != 1 || got.Misses != 1 || got.Resizes != 0 {
		t.Fatalf("second checkout stats = %+v, want 1 hit, 1 miss, 0 resizes", got)
	}
	ws2.Release()
	// Same class, more workers and tiles: recycled with an in-place grow.
	ws3 := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 100, 5, 4, 9)
	if ws3 != ws || len(ws3.Accs) != 4 || len(ws3.Outs) != 9 {
		t.Fatalf("grown checkout: ws3==ws %v, accs %d, outs %d", ws3 == ws, len(ws3.Accs), len(ws3.Outs))
	}
	if got := e.Stats(); got.Resizes != 2 {
		t.Fatalf("resizes = %d, want 2 (accs + outs)", got.Resizes)
	}
}

func TestPoolKeyNormalization(t *testing.T) {
	e := New(Config{})
	// Hash accumulators ignore the column dimension: the same workspace
	// must serve wildly different cols at equal rowCap class.
	ws := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 1<<20, 60, 1, 1)
	ws.Release()
	ws2 := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 8, 40, 1, 1)
	if ws2 != ws {
		t.Fatal("hash workspace did not pool across column dimensions")
	}
	ws2.Release()
	// Dense accumulators ignore rowCap.
	dw := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 3, 1, 1)
	dw.Release()
	dw2 := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 3000, 1, 1)
	if dw2 != dw {
		t.Fatal("dense workspace did not pool across row capacities")
	}
	// ... but marker width still separates marker-kind buckets.
	dw3 := Masked[float64, sr](e, sr{}, accum.DenseKind, 16, 64, 3, 1, 1)
	if dw3 == dw2 {
		t.Fatal("marker widths must not share a bucket")
	}
}

func TestPoolSteal(t *testing.T) {
	e := New(Config{})
	big := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 4096, 1, 1, 1)
	big.Release()
	small := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 256, 1, 1, 1)
	if small != big {
		t.Fatal("smaller request did not steal the larger idle workspace")
	}
	if got := e.Stats(); got.Steals != 1 {
		t.Fatalf("steals = %d, want 1", got.Steals)
	}
	small.Release()
	// A larger request must not steal a smaller workspace.
	huge := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 1<<16, 1, 1, 1)
	if huge == big {
		t.Fatal("larger request stole a smaller workspace")
	}
	if got := e.Stats(); got.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (big + huge; small was a steal)", got.Misses)
	}
}

func TestPoolEvictionLRU(t *testing.T) {
	e := New(Config{MaxIdle: 2})
	a := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	b := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	c := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	a.Release()
	b.Release()
	c.Release() // exceeds MaxIdle=2 → a (oldest) dropped
	if got := e.Stats(); got.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", got.Evictions)
	}
	if e.Idle() != 2 {
		t.Fatalf("idle = %d, want 2", e.Idle())
	}
	// The pool serves LIFO (c then b); the dropped a is gone, so the
	// third checkout builds afresh.
	w1 := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	w2 := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	w3 := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	if w1 != c || w2 != b {
		t.Fatal("pool not LIFO")
	}
	if w3 == a {
		t.Fatal("a dropped workspace came back")
	}
	if got := e.Stats(); got.Misses != 4 || got.Hits != 2 {
		t.Fatalf("stats = %+v, want 4 misses + 2 hits", got)
	}
}

func TestPoolDisabledRetention(t *testing.T) {
	e := New(Config{MaxIdle: -1})
	ws := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 64, 1, 1, 1)
	ws.Release()
	if e.Idle() != 0 {
		t.Fatalf("idle = %d, want 0 with retention disabled", e.Idle())
	}
	if got := e.Stats(); got.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", got.Evictions)
	}
}

func TestHitRate(t *testing.T) {
	if r := (PoolStats{}).HitRate(); r != 1 {
		t.Fatalf("empty snapshot hit rate = %v, want 1", r)
	}
	s := PoolStats{Hits: 8, Steals: 1, Misses: 1}
	if r := s.HitRate(); r != 0.9 {
		t.Fatalf("hit rate = %v, want 0.9", r)
	}
	d := PoolStats{Hits: 10, Misses: 2}.Sub(PoolStats{Hits: 8, Misses: 1})
	if d.Hits != 2 || d.Misses != 1 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestPlanCache(t *testing.T) {
	e := New(Config{MaxPlans: 2})
	builds := 0
	build := func() (Plan, error) {
		builds++
		return Plan{Tiles: []tiling.Tile{{Lo: 0, Hi: 4}}, RowCap: 3}, nil
	}
	k1 := PlanKey{Tiles: 8, M: OperandID{Rows: 4, Cols: 4, NNZ: 9}}
	p, err := e.Plan(k1, build)
	if err != nil || p.RowCap != 3 || builds != 1 {
		t.Fatalf("first Plan: %+v, %v, builds=%d", p, err, builds)
	}
	if _, err := e.Plan(k1, build); err != nil || builds != 1 {
		t.Fatalf("second Plan rebuilt (builds=%d)", builds)
	}
	if got := e.Stats(); got.PlanHits != 1 || got.PlanMisses != 1 {
		t.Fatalf("plan stats = %+v", got)
	}
	// Errors are returned uncached.
	boom := errors.New("boom")
	kErr := PlanKey{Tiles: 9}
	if _, err := e.Plan(kErr, func() (Plan, error) { return Plan{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Plan(kErr, build); err != nil || builds != 2 {
		t.Fatalf("failed build was cached (builds=%d, err=%v)", builds, err)
	}
	// LRU eviction at MaxPlans=2: touching k1 keeps it; adding a third
	// key evicts kErr.
	if _, err := e.Plan(k1, build); err != nil {
		t.Fatal(err)
	}
	k3 := PlanKey{Tiles: 10}
	if _, err := e.Plan(k3, build); err != nil || builds != 3 {
		t.Fatalf("k3 build: builds=%d, err=%v", builds, err)
	}
	if _, err := e.Plan(kErr, build); err != nil || builds != 4 {
		t.Fatalf("kErr should have been evicted (builds=%d)", builds)
	}
	if _, err := e.Plan(k1, build); err != nil || builds != 5 {
		t.Fatalf("k1 should have been evicted after kErr re-entry (builds=%d)", builds)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	e := New(Config{MaxPlans: -1})
	builds := 0
	build := func() (Plan, error) { builds++; return Plan{}, nil }
	for i := 0; i < 3; i++ {
		if _, err := e.Plan(PlanKey{Tiles: 1}, build); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 3 {
		t.Fatalf("disabled cache still cached (builds=%d)", builds)
	}
}

// TestConcurrentCheckout hammers one engine from many goroutines under
// -race: every goroutine must get a private workspace, and the counters
// must balance exactly.
func TestConcurrentCheckout(t *testing.T) {
	e := New(Config{MaxIdle: 4})
	const goroutines = 16
	const rounds = 200
	var mu sync.Mutex
	inUse := make(map[*Workspace[float64, sr]]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ws := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 1024, 64, 2, 4)
				mu.Lock()
				if inUse[ws] {
					mu.Unlock()
					t.Errorf("workspace checked out twice concurrently")
					return
				}
				inUse[ws] = true
				mu.Unlock()
				// Touch the state a real run would.
				ws.Accs[0].BeginRow()
				ws.Outs[0].Cols = ws.Outs[0].Cols[:0]
				mu.Lock()
				delete(inUse, ws)
				mu.Unlock()
				ws.Release()
			}
		}(g)
	}
	wg.Wait()
	got := e.Stats()
	if got.Lookups() != goroutines*rounds {
		t.Fatalf("lookups = %d, want %d", got.Lookups(), goroutines*rounds)
	}
	if got.HitRate() < 0.5 {
		t.Fatalf("hit rate %.2f suspiciously low for a hammered pool", got.HitRate())
	}
}

// TestConcurrentPlan races many goroutines over one plan key: the plan
// must build a bounded number of times and every caller must observe a
// valid plan.
func TestConcurrentPlan(t *testing.T) {
	e := New(Config{})
	key := PlanKey{Tiles: 4, M: OperandID{Rows: 10, NNZ: 50}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p, err := e.Plan(key, func() (Plan, error) {
					return Plan{Tiles: []tiling.Tile{{Lo: 0, Hi: 10}}, RowCap: 5}, nil
				})
				if err != nil || p.RowCap != 5 || len(p.Tiles) != 1 {
					t.Errorf("Plan = %+v, %v", p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := e.Stats(); got.PlanHits+got.PlanMisses != 800 {
		t.Fatalf("plan lookups = %d, want 800", got.PlanHits+got.PlanMisses)
	}
}

// TestPlanCacheDoesNotPinOperands pins that a cached plan keeps no
// operand reachable: keys hold a weak pointer, so a live operand's key
// hits exactly as a strong one would, and once its caller drops it the
// operand is collectable while its plan stays cached, the hit and miss
// counts untouched.
func TestPlanCacheDoesNotPinOperands(t *testing.T) {
	e := New(Config{})
	m := sparse.NewCSR[float64](64, 64, 0)
	build := func() (Plan, error) { return Plan{Tiles: []tiling.Tile{{Lo: 0, Hi: 64}}}, nil }
	if _, err := e.Plan(PlanKey{M: IDOf(m), A: IDOf(m), B: IDOf(m), Tiles: 4}, build); err != nil {
		t.Fatal(err)
	}
	key := PlanKey{M: IDOf(m), A: IDOf(m), B: IDOf(m), Tiles: 4}
	if _, ok := e.PlanLookup(key); !ok {
		t.Fatal("a live operand's key missed the plan cache")
	}
	if other := sparse.NewCSR[float64](64, 64, 0); IDOf(other) == IDOf(m) {
		t.Fatal("two live headers of one shape share a key")
	}
	want := e.Stats()
	gone := weak.Make(m)
	m = nil
	for i := 0; i < 5 && gone.Value() != nil; i++ {
		runtime.GC()
	}
	if gone.Value() != nil {
		t.Fatal("the plan cache keeps a retired operand reachable")
	}
	e.mu.Lock()
	plans := len(e.plans)
	e.mu.Unlock()
	if plans != 1 {
		t.Fatalf("plan cache holds %d plans, want 1", plans)
	}
	if got := e.Stats(); got.PlanHits != want.PlanHits || got.PlanMisses != want.PlanMisses {
		t.Fatalf("plan counts moved from %d/%d to %d/%d", want.PlanHits, want.PlanMisses, got.PlanHits, got.PlanMisses)
	}
	if want.PlanHits != 1 || want.PlanMisses != 1 {
		t.Fatalf("plan counts %d/%d, want 1 hit and 1 miss", want.PlanHits, want.PlanMisses)
	}
}

// TestCheckoutSteadyStateAllocs pins the pool's reason to exist: a warm
// checkout/release cycle performs zero allocations.
func TestCheckoutSteadyStateAllocs(t *testing.T) {
	e := New(Config{})
	Masked[float64, sr](e, sr{}, accum.HashKind, 32, 1024, 64, 2, 4).Release()
	allocs := testing.AllocsPerRun(100, func() {
		ws := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 1024, 64, 2, 4)
		ws.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm checkout/release allocates %.1f times, want 0", allocs)
	}
	p := New(Config{})
	key := PlanKey{Tiles: 4}
	build := func() (Plan, error) { return Plan{RowCap: 1}, nil }
	if _, err := p.Plan(key, build); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := p.Plan(key, build); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm plan lookup allocates %.1f times, want 0", allocs)
	}
}

// TestWindowKeys pins MaskedWindow's buckets: a window workspace holds
// window accumulators of the requested width; a window request never
// takes a full-width workspace (whose accumulators treat a column past
// their width as out of range) nor a window that cannot spill, while a
// full-width request may take a window at least as wide.
func TestWindowKeys(t *testing.T) {
	e := New(Config{})
	full := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 4096, 8, 1, 1)
	full.Release()
	win := MaskedWindow[float64, sr](e, sr{}, 32, 1024, 0, 1, 1)
	if win == full {
		t.Fatal("a window request took the idle full-width workspace")
	}
	acc := win.Accs[0]
	acc.BeginRow()
	acc.LoadMask([]sparse.Index{3000, 4023}) // spans 1024: fits
	if acc.UpdateMasked(5000, 1) || !acc.UpdateMasked(4023, 1) {
		t.Fatal("window accumulator misplaced its window")
	}
	acc.BeginRow()
	acc.LoadMask([]sparse.Index{0, 1024}) // spans 1025: spills
	if st := acc.(accum.Instrumented).AccumStats(); st.Spills != 1 {
		t.Fatalf("a 1025-column row in a 1024-slot window: %d spills, want 1", st.Spills)
	}
	win.Release()
	spill := MaskedWindow[float64, sr](e, sr{}, 32, 1024, 40, 1, 1)
	if spill == win {
		t.Fatal("a spilling window request took a window without a spill table")
	}
	spill.Release()
	if got := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 1000, 8, 1, 1); got != win && got != spill {
		t.Fatal("a full-width request did not take an idle window at least as wide")
	}
}

// TestStagingHeadersFillCacheLines pins the staging layout, as accum's
// TestHeadersFillCacheLines pins the accumulators': a kernel rewrites a
// staging header's Cols and Vals on every row, and neighbouring headers
// belong to different workers (a streamed run's per-worker buffers,
// adjacent tiles claimed concurrently), so the bytes one header writes
// must share no 64-byte cache line with the next header's, wherever the
// set lands.
func TestStagingHeadersFillCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(TileBuf[float64]{}); size%64 != 0 {
		t.Errorf("TileBuf header is %d bytes, not a whole number of 64-byte cache lines", size)
	}
	written := unsafe.Offsetof(TileBuf[float64]{}.Vals) + unsafe.Sizeof([]float64(nil))
	e := New(Config{})
	for _, n := range []int{2, 3, 4, 8, 9} {
		ws := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 128, 16, n, n)
		for w := 1; w < n; w++ {
			last := uintptr(unsafe.Pointer(&ws.Outs[w-1])) + written - 1
			next := uintptr(unsafe.Pointer(&ws.Outs[w]))
			if last/64 == next/64 {
				t.Errorf("%d buffers: header %d's last written byte shares a cache line with header %d", n, w-1, w)
			}
		}
		ws.Release()
	}
}
