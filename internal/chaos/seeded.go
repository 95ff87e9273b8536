package chaos

import (
	"sync/atomic"
	"time"
)

// Seeded is the deterministic trigger injector behind the chaos matrix:
// each injection point carries a crossing counter, and an armed trigger
// fires exactly once, on a specific crossing. Which crossing is chosen
// either explicitly (Arm) or derived from the seed (ArmSeeded), so a
// failing chaos run is reproduced by its seed alone.
//
// Seeded is safe for concurrent use: counters are atomics and arming
// publishes the trigger with an atomic store of the crossing number.
// Arm before the run; re-arming mid-run is not synchronized with
// in-flight crossings.
type Seeded struct {
	seed      uint64
	crossings [NumPoints]atomic.Int64
	fired     [NumPoints]atomic.Int64
	arms      [NumPoints]armedTrigger
}

// armedTrigger is one point's armed fault. nth is stored last by Arm
// and loaded first by Decide, publishing kind and delay; 0 = disarmed.
type armedTrigger struct {
	kind  atomic.Int32
	delay atomic.Int64
	nth   atomic.Int64
}

// NewSeeded returns a Seeded injector with no triggers armed.
func NewSeeded(seed int64) *Seeded {
	return &Seeded{seed: uint64(seed)}
}

// Arm schedules fault k at point p to fire on exactly the nth crossing
// (1-based; nth < 1 is treated as 1). delay applies to KindDelay.
func (s *Seeded) Arm(p Point, k Kind, nth int64, delay time.Duration) {
	if nth < 1 {
		nth = 1
	}
	s.arms[p].kind.Store(int32(k))
	s.arms[p].delay.Store(int64(delay))
	s.arms[p].nth.Store(nth)
}

// ArmSeeded arms fault k at point p on a seed-derived crossing in
// [1, maxNth]: the same seed always picks the same crossing, different
// seeds spread the fault across the run. maxNth < 1 is treated as 1.
func (s *Seeded) ArmSeeded(p Point, k Kind, maxNth int64, delay time.Duration) {
	if maxNth < 1 {
		maxNth = 1
	}
	h := splitmix64(s.seed ^ uint64(p)<<32 ^ uint64(k)<<8)
	s.Arm(p, k, 1+int64(h%uint64(maxNth)), delay)
}

// Crossings reports how many times point p has been consulted.
func (s *Seeded) Crossings(p Point) int64 { return s.crossings[p].Load() }

// Fired reports how many times point p's trigger has fired.
func (s *Seeded) Fired(p Point) int64 { return s.fired[p].Load() }

// Decide implements Injector: count the crossing and fire the armed
// trigger if this is its crossing. Firing on equality makes every
// trigger one-shot by construction.
func (s *Seeded) Decide(p Point) Fault {
	n := s.crossings[p].Add(1)
	target := s.arms[p].nth.Load()
	if target == 0 || n != target {
		return Fault{}
	}
	s.fired[p].Add(1)
	return Fault{
		Kind:  Kind(s.arms[p].kind.Load()),
		Delay: time.Duration(s.arms[p].delay.Load()),
	}
}

// splitmix64 is the SplitMix64 mixer — a full-avalanche hash, so
// adjacent seeds land triggers on unrelated crossings.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
