package tiling

import (
	"math/rand"
	"testing"
)

// lowerCutoff drops the serial crossover so the parallel paths run on
// test-sized inputs, restoring it when the test ends.
func lowerCutoff(t *testing.T) {
	t.Helper()
	old := parallelCutoff
	parallelCutoff = 1
	t.Cleanup(func() { parallelCutoff = old })
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRowWorkParallelMatchesSerial(t *testing.T) {
	lowerCutoff(t)
	for _, n := range []int{1, 17, 64, 257} {
		a := randomGraph(n, 0.15, int64(n))
		want := RowWork(a, a, a)
		for _, p := range []int{1, 2, 3, 8} {
			if got := RowWorkParallel(a, a, a, p); !int64sEqual(got, want) {
				t.Errorf("n=%d p=%d: parallel RowWork differs from serial", n, p)
			}
		}
	}
}

func TestFlopCountParallelMatchesSerial(t *testing.T) {
	lowerCutoff(t)
	for _, n := range []int{1, 33, 128} {
		a := randomGraph(n, 0.2, int64(n)+100)
		wantTotal, wantMax := FlopCount(a, a)
		for _, p := range []int{2, 4, 7} {
			total, maxRow, err := FlopCountParallelE(nil, a, a, p)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if total != wantTotal || maxRow != wantMax {
				t.Errorf("n=%d p=%d: FlopCountParallelE = (%d,%d), want (%d,%d)",
					n, p, total, maxRow, wantTotal, wantMax)
			}
		}
	}
}

func TestInclusiveScanMatchesSerial(t *testing.T) {
	lowerCutoff(t)
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 100, 1023} {
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(r.Intn(1000)) - 200 // negatives too: scan is pure addition
		}
		want := append([]int64(nil), x...)
		var run int64
		for i := range want {
			run += want[i]
			want[i] = run
		}
		for _, p := range []int{1, 2, 5, 16} {
			got := append([]int64(nil), x...)
			if err := InclusiveScanE(nil, got, p); err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if !int64sEqual(got, want) {
				t.Errorf("n=%d p=%d: parallel scan differs from serial", n, p)
			}
		}
	}
}

func TestPrefixSumShape(t *testing.T) {
	lowerCutoff(t)
	work := []int64{3, 0, 5, 1}
	for _, p := range []int{1, 2, 4} {
		prefix := PrefixSum(work, p)
		want := []int64{0, 3, 3, 8, 9}
		if !int64sEqual(prefix, want) {
			t.Errorf("p=%d: PrefixSum = %v, want %v", p, prefix, want)
		}
	}
}

func TestBalancedTilesParallelMatchesSerial(t *testing.T) {
	lowerCutoff(t)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows := r.Intn(3000) + 1
		work := make([]int64, rows)
		for i := range work {
			work[i] = int64(r.Intn(50))
			if r.Intn(40) == 0 {
				work[i] = int64(r.Intn(100000)) // occasional hub row
			}
		}
		n := r.Intn(300) + 1
		want := BalancedTiles(work, n)
		for _, p := range []int{2, 4, 9} {
			// The planner's layout: work in prefix[1:], scanned in place.
			prefix := make([]int64, rows+1)
			copy(prefix[1:], work)
			if err := InclusiveScanE(nil, prefix[1:], p); err != nil {
				t.Fatalf("rows=%d n=%d p=%d: %v", rows, n, p, err)
			}
			got := BalancedFromPrefix(prefix, n)
			if len(got) != len(want) {
				t.Fatalf("rows=%d n=%d p=%d: %d tiles, want %d", rows, n, p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("rows=%d n=%d p=%d: tile %d = %+v, want %+v",
						rows, n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMakeParallelMatchesMake(t *testing.T) {
	lowerCutoff(t)
	a := randomGraph(200, 0.1, 42)
	for _, s := range []Strategy{Uniform, FlopBalanced} {
		// The references build the row work and its prefix sum in two
		// arrays; MakeParallelE builds them in one.
		want := UniformTiles(a.Rows, 16)
		if s == FlopBalanced {
			want = BalancedTiles(RowWork(a, a, a), 16)
		}
		for _, p := range []int{1, 2, 4} {
			got, err := MakeParallelE(nil, s, 16, p, a, a, a)
			if err != nil {
				t.Fatalf("%v p=%d: %v", s, p, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v p=%d: %d tiles, want %d", s, p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v p=%d: tile %d = %+v, want %+v", s, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWorkPrefixStages(t *testing.T) {
	lowerCutoff(t)
	a := randomGraph(300, 0.1, 7)
	want := PrefixSum(RowWork(a, a, a), 1)
	for _, p := range []int{1, 2, 4} {
		var steps []int
		staged, err := WorkPrefixE(nil, a, a, a, p, func(step int, run func() error) error {
			steps = append(steps, step)
			return run()
		})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := WorkPrefixE(nil, a, a, a, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !int64sEqual(staged, want) || !int64sEqual(direct, want) {
			t.Errorf("p=%d: WorkPrefixE differs from PrefixSum(RowWork)", p)
		}
		if len(steps) != 2 || steps[0] != 0 || steps[1] != 1 {
			t.Errorf("p=%d: stage saw steps %v, want row work then prefix sum", p, steps)
		}
	}
	// Serial passes: without a stage the array is the only allocation.
	if n := testing.AllocsPerRun(20, func() { WorkPrefixE(nil, a, a, a, 1, nil) }); n != 1 {
		t.Errorf("WorkPrefixE with a nil stage: %v allocs, want 1", n)
	}
}
