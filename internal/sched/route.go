package sched

// Score is the cost of routing the next bundle to a dispatch-tree child,
// from the counts in its latest capacity report plus inflight, the tasks
// routed to it since: estimated backlog minus idle slots, so an idle child
// wins over a backlogged one even when the backlogged one has more
// executors. Lower is better.
func Score(queued, running, idle, executors, inflight int) int {
	s := queued + running - idle + inflight
	if executors == 0 {
		// An executor-less child drains nothing: its empty queue would
		// otherwise look maximally idle and absorb bundles no one will run.
		s += 1 << 20
	}
	return s
}

// PickChild returns the child in [0, n) with the lowest score, or -1 when
// score reports none eligible (ok=false, say for a child that is down). The
// scan starts at rr, so ties go round-robin when the caller advances rr past
// each pick; avoid (-1 = none) loses ties but is not excluded.
func PickChild(n, rr, avoid int, score func(i int) (s int, ok bool)) int {
	best, bestScore := -1, 0
	for k := 0; k < n; k++ {
		i := (rr + k) % n
		s, ok := score(i)
		if !ok {
			continue
		}
		if best < 0 || s < bestScore || (s == bestScore && best == avoid && i != avoid) {
			best, bestScore = i, s
		}
	}
	return best
}
