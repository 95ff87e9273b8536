package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file hands a run's workers to helpers: goroutines that stay
// parked for an idle window after their task, so back-to-back runs
// reuse them instead of spawning one goroutine per worker per run.
//
// Spawning per run made a run's allocation count depend on timing: the
// runtime reuses the descriptor of an exited goroutine only from the
// free list of the P it exited on, so a worker that happened to exit on
// another P than the next run's spawner cost a fresh descriptor — one
// heap object, at a rate set by the OS scheduler. A warm iterative loop
// allocated a few objects more or less per pass from one run to the
// next. A parked helper takes its next task over its own channel and
// allocates nothing; a helper the window expired on is respawned, so
// no goroutine outlives its last run by more than two windows.

// helperIdle is the idle window: a helper that received no task for a
// full window exits at the next tick, so one exits between one and two
// windows after its last task.
const helperIdle = time.Second

// maxHelpers bounds the parked helpers; a worker that finds every slot
// busy (more than maxHelpers workers at once, across all runs) runs on
// a plain goroutine that exits with its task.
const maxHelpers = 64

// Slot states. A slot is reserved (busy) by the dispatcher that hands it
// a task and returns to idle when the task is done, before the run's
// WaitGroup is released — so a run that returned left every helper it
// used reservable, and the next run spawns nothing.
const (
	slotDead int32 = iota // no goroutine
	slotIdle              // goroutine parked on tasks
	slotBusy              // reserved, or running a task
)

// task is one worker of a run: fn, then wg.Done.
type task struct {
	fn func()
	wg *sync.WaitGroup
}

type helperSlot struct {
	state atomic.Int32
	// tasks carries the reserving dispatcher's one task; it is empty
	// whenever the slot is idle or dead, so a send never blocks.
	tasks chan task
	// idle is the slot's idle-window timer, made by its first helper and
	// reused by every later one, so a respawn allocates no timer. Only
	// the slot's live helper touches it.
	idle *time.Timer
}

var helpers [maxHelpers]helperSlot

// helperSpawns counts goroutines started by spawn, helpers and plain
// ones; tests read it to check that warm runs start none.
var helperSpawns atomic.Int64

func init() {
	for i := range helpers {
		helpers[i].tasks = make(chan task, 1)
	}
}

// spawn runs fn on a helper and calls wg.Done when it returns: on an
// idle helper when there is one, else on a new goroutine, which stays
// as a helper when a slot is free. It never blocks, so a task may start
// nested runs of its own.
func spawn(wg *sync.WaitGroup, fn func()) {
	t := task{fn: fn, wg: wg}
	dead := -1
	for i := range helpers {
		h := &helpers[i]
		switch h.state.Load() {
		case slotIdle:
			if h.state.CompareAndSwap(slotIdle, slotBusy) {
				h.tasks <- t
				return
			}
		case slotDead:
			if dead < 0 {
				dead = i
			}
		}
	}
	helperSpawns.Add(1)
	if dead >= 0 {
		if h := &helpers[dead]; h.state.CompareAndSwap(slotDead, slotBusy) {
			h.tasks <- t
			go h.serve()
			return
		}
	}
	go t.run()
}

// run is a task on a plain goroutine; the deferred Done also releases
// the run when fn leaves by runtime.Goexit.
func (t task) run() {
	defer t.wg.Done()
	t.fn()
}

// serve is a helper's life: take tasks off h.tasks, the first already
// there, until a whole idle window passes without one. A task that
// leaves by runtime.Goexit (t.FailNow in a test's tile) takes the
// helper with it; the deferred release frees its slot and its run.
func (h *helperSlot) serve() {
	if h.idle == nil {
		h.idle = time.NewTimer(helperIdle)
	} else {
		h.idle.Reset(helperIdle)
	}
	t := <-h.tasks
	running := true
	defer func() {
		if running {
			h.idle.Stop()
			h.state.Store(slotDead)
			t.wg.Done()
		}
	}()
	used := true
	for {
		t.fn()
		// Drop the task before parking: its closure holds the run's
		// state, which a parked helper must not keep alive.
		wg := t.wg
		t, running = task{}, false
		h.state.Store(slotIdle)
		wg.Done()
		for !running {
			select {
			case t = <-h.tasks:
				running, used = true, true
			case <-h.idle.C:
				if !used && h.state.CompareAndSwap(slotIdle, slotDead) {
					// The timer has fired, so the slot's next helper
					// finds it stopped.
					return
				}
				// Used within the window, or reserved since the tick
				// (its task is on the way): wait another window.
				used = false
				h.idle.Reset(helperIdle)
			}
		}
	}
}
