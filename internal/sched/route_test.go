package sched

import "testing"

func TestScore(t *testing.T) {
	if got := Score(5, 3, 2, 4, 10); got != 16 {
		t.Fatalf("Score = %d, want 16", got)
	}
	if got := Score(5, 3, 2, 0, 10); got != 16+1<<20 {
		t.Fatalf("executor-less Score = %d, want the penalty added", got)
	}
}

func TestPickChild(t *testing.T) {
	scores := []int{-4, -4, 1 << 20, -4}
	up := []bool{true, true, true, true}
	score := func(i int) (int, bool) { return scores[i], up[i] }

	// Ties go round-robin from rr.
	for rr, want := range []int{0, 1, 3, 3} {
		if got := PickChild(len(scores), rr, -1, score); got != want {
			t.Fatalf("rr=%d: picked %d, want %d", rr, got, want)
		}
	}
	// avoid loses a tie but stays eligible.
	if got := PickChild(len(scores), 0, 0, score); got != 1 {
		t.Fatalf("avoid=0 picked %d, want 1", got)
	}
	up[1], up[3] = false, false
	if got := PickChild(len(scores), 0, 0, score); got != 0 {
		t.Fatalf("sole runnable child avoided: picked %d", got)
	}
	// A lower score wins regardless of scan order.
	up[1], up[3] = true, true
	scores[3] = -5
	if got := PickChild(len(scores), 0, -1, score); got != 3 {
		t.Fatalf("picked %d, want the idlest child 3", got)
	}
	for i := range up {
		up[i] = false
	}
	if got := PickChild(len(scores), 0, -1, score); got != -1 {
		t.Fatalf("all down: picked %d, want -1", got)
	}
}
