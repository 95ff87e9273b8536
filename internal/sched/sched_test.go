package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunExecutesEveryTileOnce(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		for _, workers := range []int{1, 2, 4, 7} {
			const tiles = 103
			var counts [tiles]atomic.Int32
			check(t, RunWavesE(nil, policy, workers, SingleWave(tiles), func(_, tile int) {
				counts[tile].Add(1)
			}))
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("%v/p=%d: tile %d ran %d times", policy, workers, i, got)
				}
			}
		}
	}
}

func TestRunWorkerIDsInRange(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		const workers, tiles = 4, 50
		var bad atomic.Int32
		check(t, RunWavesE(nil, policy, workers, SingleWave(tiles), func(w, _ int) {
			if w < 0 || w >= workers {
				bad.Add(1)
			}
		}))
		if bad.Load() != 0 {
			t.Errorf("%v: worker id out of range", policy)
		}
	}
}

func TestStaticAssignmentIsDeterministic(t *testing.T) {
	// Under the static policy, tile t must always run on worker t mod p.
	const workers, tiles = 3, 30
	owner := make([]int, tiles)
	var mu sync.Mutex
	check(t, RunWavesE(nil, Static, workers, SingleWave(tiles), func(w, tile int) {
		mu.Lock()
		owner[tile] = w
		mu.Unlock()
	}))
	for tile, w := range owner {
		if w != StaticOwner(tile, workers) {
			t.Errorf("tile %d ran on worker %d, want %d", tile, w, StaticOwner(tile, workers))
		}
	}
}

func TestWorkerScratchIsolation(t *testing.T) {
	// Per-worker scratch must never be touched concurrently: bump a
	// non-atomic counter per worker and verify the total.
	const workers, tiles = 4, 1000
	scratch := make([]int64, workers)
	check(t, RunWavesE(nil, Dynamic, workers, SingleWave(tiles), func(w, _ int) {
		scratch[w]++ // safe iff worker w is single-threaded
	}))
	var total int64
	for _, s := range scratch {
		total += s
	}
	if total != tiles {
		t.Errorf("scratch total %d, want %d (lost updates => worker ids unsafe)", total, tiles)
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	// With one worker the tiles must run on the calling goroutine in
	// order — verified by observing strictly increasing tile ids without
	// synchronization.
	last := -1
	ok := true
	check(t, RunWavesE(nil, Dynamic, 1, SingleWave(20), func(_, tile int) {
		if tile != last+1 {
			ok = false
		}
		last = tile
	}))
	if !ok || last != 19 {
		t.Error("single-worker execution not inline/in-order")
	}
}

func TestRunZeroTiles(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic, Guided} {
		ran := false
		check(t, RunWavesE(nil, policy, 4, SingleWave(0), func(_, _ int) { ran = true }))
		if ran {
			t.Errorf("%v: fn invoked with zero tiles", policy)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 {
		t.Error("Workers(0) must be at least 1")
	}
	if Workers(5) != 5 {
		t.Error("Workers(5) must be 5")
	}
}

func TestRunPropertyAllPoliciesAllSizes(t *testing.T) {
	f := func(pRaw, tRaw, polRaw uint8) bool {
		p := int(pRaw%8) + 1
		tiles := int(tRaw % 64)
		policy := Policy(polRaw % 3)
		var n atomic.Int64
		check(t, RunWavesOpts(nil, policy, p, SingleWave(tiles), RunOpts{}, func(_, _ int) { n.Add(1) }))
		return n.Load() == int64(tiles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{Static: "Static", Dynamic: "Dynamic", Guided: "Guided", Policy(99): "Unknown"}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestGuidedEveryTileClaimedOnce(t *testing.T) {
	// Non-atomic per-tile writes: a double claim is a data race the race
	// detector flags, and a missed tile leaves a zero we assert on.
	for _, workers := range []int{2, 4, 8} {
		const tiles = 5000
		hits := make([]int64, tiles)
		check(t, RunWavesOpts(nil, Guided, workers, SingleWave(tiles), RunOpts{}, func(_, tile int) {
			hits[tile]++
		}))
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("p=%d: tile %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestGuidedScratchIsolation(t *testing.T) {
	// Worker ids under Guided must be exclusive, like the other policies:
	// per-worker non-atomic counters must not lose updates.
	const workers, tiles = 4, 4096
	scratch := make([]int64, workers)
	check(t, RunWavesOpts(nil, Guided, workers, SingleWave(tiles), RunOpts{}, func(w, _ int) {
		scratch[w]++
	}))
	var total int64
	for _, s := range scratch {
		total += s
	}
	if total != tiles {
		t.Errorf("scratch total %d, want %d", total, tiles)
	}
}

func TestGuidedChunkDecay(t *testing.T) {
	// The claim size must be remaining/p, at least one tile — geometric
	// decay toward single-tile claims.
	if got := GuidedChunk(1000, 4); got != 250 {
		t.Errorf("GuidedChunk(1000,4) = %d, want 250", got)
	}
	if got := GuidedChunk(7, 4); got != 1 {
		t.Errorf("GuidedChunk(7,4) = %d, want 1 (integer division floor)", got)
	}
	if got := GuidedChunk(3, 4); got != 1 {
		t.Errorf("GuidedChunk(3,4) = %d, want 1 (never an empty claim)", got)
	}
	if got := GuidedChunk(0, 4); got != 0 {
		t.Errorf("GuidedChunk(0,4) = %d, want 0", got)
	}
	// Simulated drain: total tiles claimed must equal the supply, and
	// chunk sizes must never grow as the supply shrinks.
	rem, prev := 32768, 1<<62
	for rem > 0 {
		c := GuidedChunk(rem, 8)
		if c > prev {
			t.Fatalf("chunk grew: %d after %d", c, prev)
		}
		prev = c
		rem -= c
	}
	if rem != 0 {
		t.Fatalf("drain overshot by %d", -rem)
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			workers := map[int]bool{}
			check(t, BlocksE(nil, p, n, func(w, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if workers[w] {
					t.Errorf("p=%d n=%d: worker %d ran two blocks", p, n, w)
				}
				workers[w] = true
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			}))
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, s)
				}
			}
		}
	}
}

func TestBlocksSingleWorkerInline(t *testing.T) {
	// p=1 must run the single block on the calling goroutine.
	ran := false
	check(t, BlocksE(nil, 1, 10, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 10 {
			t.Errorf("inline block = (%d, %d, %d)", w, lo, hi)
		}
		ran = true // safe without sync iff inline
	}))
	if !ran {
		t.Error("block did not run")
	}
}

// check fails the test on a scheduler error; the callbacks of the tests
// that use it cannot fail on their own.
func check(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
