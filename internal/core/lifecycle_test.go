package core

import (
	"strings"
	"testing"
)

// mustPanic runs fn and reports whether it panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestLifecycleTransitionTable drives every legal edge of the instance
// lifecycle once through transition, then checks that every pair outside
// the table panics and leaves the word untouched — as does a self-edge
// that is not one task ending, and Start without a Bind (idle → running).
func TestLifecycleTransitionTable(t *testing.T) {
	inst := NewInstance(echoTemplate(t), NewScheduler(1, Cooperative))
	word := func(p phase, live uint32) uint64 { return uint64(p)<<32 | uint64(live) }

	walk := []struct {
		to   phase
		live uint32
	}{
		{phaseBound, 0}, // idle → bound
		{phaseIdle, 0},  // bound → idle: dispatch failed before Start
		{phaseBound, 0},
		{phaseRunning, 3},  // bound → running
		{phaseRunning, 2},  // running → running: one task ended
		{phaseDraining, 2}, // running → draining
		{phaseDraining, 1}, // draining → draining: one task ended
		{phaseFinished, 0}, // draining → finished
		{phaseIdle, 0},     // finished → idle
		{phaseBound, 0},
		{phaseRunning, 1},
		{phaseFinished, 0}, // running → finished: no shutdown
		{phaseIdle, 0},
	}
	seen := map[[2]phase]bool{}
	for i, step := range walk {
		old := inst.state.Load()
		if !inst.transition(old, step.to, step.live) {
			t.Fatalf("step %d: uncontested transition lost its CAS", i)
		}
		if got := inst.state.Load(); got != word(step.to, step.live) {
			t.Fatalf("step %d: word = %#x, want %s live %d", i, got, step.to, step.live)
		}
		seen[[2]phase{phase(old >> 32), step.to}] = true
	}

	for from := phaseIdle; from <= phaseFinished; from++ {
		for to := phaseIdle; to <= phaseFinished; to++ {
			legal := edges[from]&(1<<to) != 0
			if legal {
				if !seen[[2]phase{from, to}] {
					t.Errorf("legal edge %s → %s not driven", from, to)
				}
				continue
			}
			w := word(from, 1)
			inst.state.Store(w)
			if !mustPanic(func() { inst.transition(w, to, 0) }) {
				t.Errorf("illegal edge %s → %s did not panic", from, to)
			}
			if inst.state.Load() != w {
				t.Errorf("illegal edge %s → %s changed the word", from, to)
			}
		}
	}

	// A self-edge is one task ending, never a reset of the count (a second
	// Start on a running instance).
	w := word(phaseRunning, 2)
	inst.state.Store(w)
	if !mustPanic(func() { inst.transition(w, phaseRunning, 3) }) {
		t.Error("running → running without a task ending did not panic")
	}

	inst.state.Store(word(phaseIdle, 0))
	if !mustPanic(inst.Start) {
		t.Fatal("Start without a Bind (idle → running) did not panic")
	}
	if s := inst.DebugString(); !strings.Contains(s, "phase=idle live=0") {
		t.Fatalf("DebugString after the refused Start:\n%s", s)
	}
}
