package simfalkon

import (
	"time"

	"falkon/internal/sched"
	"falkon/internal/sim"
)

// Tree is the virtual-time hierarchical dispatch tree: one root routing
// bundles to L leaf Models, each leaf a full dispatcher with its own serial
// CPU. It mirrors the live forwarder root: the client's bundles land on the
// root's submission pipeline (Axis envelope), the root's serial CPU routes
// fixed-size bundles to the least-loaded leaf (the capacity-hint protocol,
// idealized to a fresh snapshot plus an in-flight estimate), leaves pay the
// envelope parse on their own CPUs, and results relay upward in bundles.
// Throughput therefore scales with the leaf count until the root's
// per-bundle routing cost saturates — the petascale argument of §6.
//
// With a single leaf the root adds nothing: Submit and AddExecutor delegate
// straight to the leaf Model, so a depth-1 tree is the legacy model
// bit-for-bit (pinned by TestTreeSingleLeafBitForBit).
type Tree struct {
	E *sim.Engine
	P Profile

	// Leaves are the downstream dispatcher models, all on one engine/clock.
	Leaves []*Model

	// Bundle is the root→leaf bundle size (default 64), amortizing the
	// per-bundle routing cost exactly like the client-side BundleSize
	// amortizes the Axis envelope.
	Bundle int

	// KeepRecords retains a Rec per task tree-wide (leave off for
	// million-task runs); OnTaskDone observes every completion with its
	// leaf index.
	KeepRecords bool
	Records     []Rec
	OnTaskDone  func(leaf int, r Rec)

	// RootServedTime accumulates root CPU time (routing + result relay)
	// for utilization accounting, the tree analogue of
	// Model.DispatchServedTime.
	RootServedTime time.Duration

	// rq is the root's serial CPU: routing jobs down, result relays up.
	rq       sched.Ring[dispJob]
	rootBusy bool

	// sq is the root's submission pipeline (client-facing envelope parse),
	// feeding pendingRoute, the root's internal task queue.
	sq           sched.Ring[dispJob]
	subBusy      bool
	pendingRoute []Spec
	routing      bool

	rr       int
	inflight []int // routed to leaf i, not yet acknowledged
	nextID   int
	nextExec int

	bundlesDown int
	bundlesUp   int
	resultsPend int
	completed   int
	submitted   int

	digest uint64
}

// NewTree builds a root over `leaves` leaf models sharing engine e. Leaves
// below 1 are clamped to 1 (the degenerate single-level tree).
func NewTree(e *sim.Engine, p Profile, leaves int) *Tree {
	if leaves < 1 {
		leaves = 1
	}
	t := &Tree{E: e, P: p, Bundle: 64, digest: 1469598103934665603} // FNV offset basis
	for i := 0; i < leaves; i++ {
		m := New(e, p)
		li := i
		m.OnTaskDone = func(r Rec) { t.leafDone(li, r) }
		t.Leaves = append(t.Leaves, m)
	}
	t.inflight = make([]int, leaves)
	return t
}

// AddExecutor registers one executor, striped round-robin across leaves —
// the deployment where each physical partition runs its own leaf.
func (t *Tree) AddExecutor(idleTimeout time.Duration, onRelease func(*Exec)) *Exec {
	li := t.nextExec % len(t.Leaves)
	t.nextExec++
	return t.Leaves[li].AddExecutor(idleTimeout, onRelease)
}

// AddExecutors registers n executors with no idle release.
func (t *Tree) AddExecutors(n int) {
	for i := 0; i < n; i++ {
		t.AddExecutor(0, nil)
	}
}

// Submitted and Completed return tree-wide task counters.
func (t *Tree) Submitted() int {
	if len(t.Leaves) == 1 {
		return t.Leaves[0].Submitted()
	}
	return t.submitted
}
func (t *Tree) Completed() int {
	if len(t.Leaves) == 1 {
		return t.Leaves[0].Completed()
	}
	return t.completed
}

// BundlesRouted returns down- and up-bundle counts through the root (0,0 in
// the single-leaf passthrough).
func (t *Tree) BundlesRouted() (down, up int) { return t.bundlesDown, t.bundlesUp }

// Digest folds the completion stream (leaf, id, exec, finish time) into an
// FNV-style hash: two runs of the same workload must produce equal digests,
// which is how the 1M-executor test pins determinism without keeping a
// million records.
func (t *Tree) Digest() uint64 { return t.digest }

func (t *Tree) fold(v uint64) {
	t.digest = (t.digest ^ v) * 1099511628211
}

// Submit enqueues specs through the tree in client bundles of `bundle`
// tasks. With one leaf it delegates to the leaf's own Submit (the legacy
// event sequence); otherwise each client bundle is parsed on the root's
// submission pipeline and handed to the router.
func (t *Tree) Submit(specs []Spec, bundle int) {
	if len(t.Leaves) == 1 {
		t.Leaves[0].Submit(specs, bundle)
		return
	}
	if bundle <= 0 {
		bundle = 1
	}
	t.submitted += len(specs)
	var send func(rest []Spec)
	send = func(rest []Spec) {
		if len(rest) == 0 {
			return
		}
		n := bundle
		if n > len(rest) {
			n = len(rest)
		}
		batch := rest[:n]
		cost := t.P.Axis.MessageCost(n)
		t.subSubmit(cost, func() {
			t.pendingRoute = append(t.pendingRoute, batch...)
			t.route()
			send(rest[n:])
		})
	}
	send(specs)
}

// SubmitSleepStream submits total sleep tasks of duration dur, bundled.
func (t *Tree) SubmitSleepStream(total int, dur time.Duration, bundle int) {
	specs := make([]Spec, total)
	for i := range specs {
		specs[i] = Spec{Dur: dur}
	}
	t.Submit(specs, bundle)
}

// route drains pendingRoute through the root CPU, one bundle in flight at a
// time (the serial routing loop of the live root).
func (t *Tree) route() {
	if t.routing || len(t.pendingRoute) == 0 {
		return
	}
	t.routing = true
	n := t.Bundle
	if n <= 0 {
		n = 1
	}
	if n > len(t.pendingRoute) {
		n = len(t.pendingRoute)
	}
	batch := make([]Spec, n)
	copy(batch, t.pendingRoute[:n])
	t.pendingRoute = t.pendingRoute[n:]
	if len(t.pendingRoute) == 0 {
		t.pendingRoute = nil
	}
	cost := t.P.RouteCost + time.Duration(n)*t.P.RouteCostPerTask
	t.rootSubmit(cost, func() {
		// The live root's routing policy with a perfectly fresh hint: the
		// simulator reads leaf state directly, so staleness is represented
		// only by the in-flight term. Busy executors stand in for the hint's
		// outstanding count.
		li := sched.PickChild(len(t.Leaves), t.rr, -1, func(i int) (int, bool) {
			m := t.Leaves[i]
			return sched.Score(m.QueueLen(), m.BusyExecutors(), m.IdleExecutors(), m.LiveExecutors(), t.inflight[i]), true
		})
		t.rr = (li + 1) % len(t.Leaves)
		ids := make([]int, n)
		for i := range ids {
			t.nextID++
			ids[i] = t.nextID
		}
		t.inflight[li] += n
		t.bundlesDown++
		t.Leaves[li].InjectBundle(ids, batch, func() {
			t.inflight[li] -= n
		})
		t.routing = false
		t.route()
	})
}

// leafDone observes one completion at leaf li: fold it into the determinism
// digest, surface it, and charge the root for relaying results upward in
// bundles.
func (t *Tree) leafDone(li int, r Rec) {
	t.fold(uint64(li)<<48 ^ uint64(r.ID))
	t.fold(uint64(r.Exec)<<32 ^ uint64(r.Finished))
	if t.KeepRecords {
		t.Records = append(t.Records, r)
	}
	if t.OnTaskDone != nil {
		t.OnTaskDone(li, r)
	}
	if len(t.Leaves) == 1 {
		return
	}
	t.completed++
	t.resultsPend++
	// Results relay upward once a full bundle accumulates — or at workload
	// end, when the remainder flushes.
	if t.resultsPend >= t.Bundle || t.completed == t.submitted {
		k := t.resultsPend
		t.resultsPend = 0
		t.bundlesUp++
		t.rootSubmit(t.P.RouteCost+time.Duration(k)*t.P.RouteCostPerTask, func() {})
	}
}

// rootSubmit charges the root CPU with one job; rootRun serves FIFO.
func (t *Tree) rootSubmit(cost time.Duration, fn func()) {
	t.rq.Push(dispJob{cost: cost, fn: fn})
	if !t.rootBusy {
		t.rootRun()
	}
}

func (t *Tree) rootRun() {
	job, ok := t.rq.Pop()
	if !ok {
		t.rootBusy = false
		return
	}
	t.rootBusy = true
	t.RootServedTime += job.cost
	t.E.After(job.cost, func() {
		job.fn()
		t.rootRun()
	})
}

// subSubmit charges the root's client-facing submission pipeline; subRun
// serves FIFO. Same split as the leaf model: envelope parsing does not
// contend with the routing CPU.
func (t *Tree) subSubmit(cost time.Duration, fn func()) {
	t.sq.Push(dispJob{cost: cost, fn: fn})
	if !t.subBusy {
		t.subRun()
	}
}

func (t *Tree) subRun() {
	job, ok := t.sq.Pop()
	if !ok {
		t.subBusy = false
		return
	}
	t.subBusy = true
	t.E.After(job.cost, func() {
		job.fn()
		t.subRun()
	})
}
