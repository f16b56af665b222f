package forward

import (
	"encoding/json"
	"fmt"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// leaf is one downstream child — a dispatcher or another forwarder — from
// the root's point of view: its connection (nil while down), the freshest
// capacity hint it reported, and the bundle-routing counters falkon-top
// surfaces per leaf.
type leaf struct {
	idx  int
	addr string

	cli *wsrpc.Client // nil while down
	up  bool

	cap      fproto.CapacityHint
	inflight int // tasks routed since cap was last refreshed

	bundles    int64
	tasks      int64
	results    int64
	reroutes   int64
	reconnects int64

	// starved counts consecutive rescue-loop ticks this leaf spent up but
	// executor-less while some sibling could run work (see
	// rescueStarvedLeaves).
	starved int
}

// absorbHint installs a capacity report if it is fresher than the current
// one, resetting the unreported-routing estimate. Freshness is (Epoch, Seq)
// lexicographic: Seq restarts from 1 when the leaf process restarts, so a
// restarted leaf's hints must beat the dead incarnation's high-Seq
// leftovers on epoch alone — comparing raw Seq would freeze the routing
// table on pre-crash capacity (an idle leaf pushes nothing to correct it).
// Reports whether h was installed. Callers hold Forwarder.mu.
func (l *leaf) absorbHint(h fproto.CapacityHint) bool {
	if h.Epoch < l.cap.Epoch || (h.Epoch == l.cap.Epoch && h.Seq < l.cap.Seq) {
		return false
	}
	l.cap = h
	l.inflight = 0
	return true
}

// dialLeaf establishes leaf l's downstream connection and attaches the root
// as a tree parent. A leaf that rejects attach-parent counts as a failed
// dial. Called without Forwarder.mu; the caller installs the returned state.
func (f *Forwarder) dialLeaf(l *leaf) (*wsrpc.Client, fproto.CapacityHint, error) {
	idx := l.idx
	cli, err := wsrpc.Dial(l.addr, wsrpc.ClientOptions{
		Security: f.opts.Security,
		PSK:      f.opts.PSK,
		OnNotify: func(method string, body json.RawMessage) {
			f.onLeafNotify(idx, method, body)
		},
		Metrics: f.reg,
	})
	if err != nil {
		return nil, fproto.CapacityHint{}, err
	}
	var hint fproto.CapacityHint
	if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: f.name()}, &hint); err != nil {
		cli.Close()
		return nil, fproto.CapacityHint{}, err
	}
	return cli, hint, nil
}

// onLeafNotify handles pushes from leaf idx: capacity hints update the
// routing table (and the sum this forwarder reports to its own parents),
// result notifications resolve pending tasks.
func (f *Forwarder) onLeafNotify(idx int, method string, body json.RawMessage) {
	switch method {
	case fproto.NotifyCapacity:
		var h fproto.CapacityHint
		if err := json.Unmarshal(body, &h); err != nil {
			return
		}
		f.mu.Lock()
		changed := idx < len(f.leaves) && f.leaves[idx].absorbHint(h)
		f.mu.Unlock()
		if changed {
			f.pushCapacity()
		}
	case fproto.NotifyResults:
		var n fproto.ResultsNotify
		if err := wsrpc.UnmarshalBody(body, &n); err != nil {
			return
		}
		f.onLeafResults(idx, n.EPR, n.Results)
	}
}

// superviseLeaf owns leaf l's connection lifecycle: it waits for the
// current connection to die, fails the leaf over (rerouting its pending
// work), and redials with backoff until the forwarder closes — the same
// shape as the client library's dispatcher supervision, but per leaf.
func (f *Forwarder) superviseLeaf(l *leaf) {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		cli := l.cli
		f.mu.Unlock()
		if cli == nil {
			return
		}
		select {
		case <-cli.Done():
		case <-f.stop:
			return
		}
		f.leafDown(l)
		if !f.redialLeaf(l) {
			return
		}
	}
}

// leafDown marks l unroutable and kicks its pending tasks to surviving
// leaves. The instance mappings (byReal, downEPR) are kept for the redial
// path, which evacuates the old downstream instances by EPR.
func (f *Forwarder) leafDown(l *leaf) {
	f.mu.Lock()
	if l.cli != nil {
		l.cli.Close()
	}
	l.cli = nil
	l.up = false
	f.mu.Unlock()
	f.pushCapacity()
	f.logf("forward: leaf %s down, rerouting its pending tasks", l.addr)
	// Asynchronous: with no surviving leaf the reroute parks in waitRoutable,
	// and the supervisor must be free to redial — the very thing that makes
	// the system routable again. Safe to run concurrently with the redial's
	// own redistribute: routing re-pins each pending entry, and any task that
	// double-executes in the overlap dedupes at the root.
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.redistribute(l.idx, f.owedBy(l.idx))
	}()
}

// redialLeaf reconnects to l with jittered backoff, evacuates the old
// downstream instances, and puts the leaf back in the routing set. Returns
// false when the forwarder closed instead.
func (f *Forwarder) redialLeaf(l *leaf) bool {
	for attempt := 0; ; attempt++ {
		select {
		case <-f.stop:
			return false
		case <-time.After(f.backoff.Delay(attempt)):
		}
		cli, hint, err := f.dialLeaf(l)
		if err != nil {
			continue
		}
		f.evacuate(l.idx, cli)
		f.mu.Lock()
		l.cli = cli
		l.up = true
		// absorbHint, not assignment: evacuate above takes long
		// enough that a forced capacity push from the fresh incarnation (an
		// executor re-registering, say) can land first — overwriting it with
		// the attach-time snapshot would pin this leaf at its attach-moment
		// population until the next push, which an idle leaf never sends.
		l.absorbHint(hint)
		l.inflight = 0
		l.reconnects++
		f.routable.Broadcast()
		f.mu.Unlock()
		f.pushCapacity()
		f.logf("forward: leaf %s reconnected (attempt %d)", l.addr, attempt+1)
		// Anything still routed here (no surviving leaf took it while we
		// were down) resubmits against the fresh connection.
		f.redistribute(l.idx, f.owedBy(l.idx))
		return true
	}
}

// evacuate empties leaf idx of this root's downstream instances, for both
// a freshly redialed leaf and an executor-less one the rescue loop gives up
// on. Each instance is reattached by EPR and then destroyed, dropping
// whatever the leaf still holds queued for this root; the next bundle routed
// here creates a fresh downstream instance. The byReal mapping goes first,
// so anything the reattach flushes (results a redialed leaf buffered while
// detached; on a live connection, nothing) drops: the caller's redistribute
// replays the leaf's pending tasks, and a replay must stay the single
// execution — an original result delivered here would leave the replay's
// copy orphaned in some other leaf's queue, owed to no one.
func (f *Forwarder) evacuate(idx int, cli *wsrpc.Client) {
	var eprs []string
	f.mu.Lock()
	for k, inst := range f.byReal {
		if k.down != idx {
			continue
		}
		eprs = append(eprs, k.epr)
		delete(f.byReal, k)
		inst.mu.Lock()
		if inst.downEPR[idx] == k.epr {
			inst.downEPR[idx] = ""
		}
		inst.mu.Unlock()
	}
	f.mu.Unlock()
	for _, epr := range eprs {
		var rep fproto.CreateInstanceReply
		err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
			ClientName: f.name(), WantNotifications: true, EPR: epr,
		}, &rep)
		if err == nil {
			// Best effort: copies a failed destroy leaves queued are owed
			// to no one, so any result they produce drops.
			var out struct{}
			_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: epr}, &out)
		}
	}
}

// owedBy snapshots, per live instance, the tasks currently routed to leaf
// idx.
func (f *Forwarder) owedBy(idx int) map[*finst][]task.Task {
	owed := make(map[*finst][]task.Task)
	for _, inst := range f.instances() {
		inst.mu.Lock()
		for _, pe := range inst.pending {
			if pe.leaf == idx && !inst.destroyed.Load() {
				owed[inst] = append(owed[inst], pe.t)
			}
		}
		inst.mu.Unlock()
	}
	return owed
}

// redistribute replays the tasks owedBy leaf `from` through the normal
// routing path, which picks whatever leaf is healthiest now (possibly `from`
// itself, freshly reconnected). A replay racing its original is harmless:
// the first result clears the pending entry, routeBundle re-pins only tasks
// still pending, and onLeafResults drops any later result for the same ID.
func (f *Forwarder) redistribute(from int, owed map[*finst][]task.Task) {
	total := 0
	for inst, ts := range owed {
		total += len(ts)
		for start := 0; start < len(ts); start += f.bundle {
			end := min(start+f.bundle, len(ts))
			if err := f.routeBundle(inst, ts[start:end], ts[0].Trace, from); err != nil {
				f.logf("forward: reroute %d tasks from leaf %d: %v", end-start, from, err)
			}
		}
	}
	if total > 0 {
		f.mu.Lock()
		f.leaves[from].reroutes += int64(total)
		f.mu.Unlock()
		f.logf("forward: rerouted %d tasks away from leaf %d", total, from)
	}
}

// rescueStarvedLeaves runs until Close, watching for tasks stranded on an
// executor-less leaf. The routing score steers new bundles away from such
// leaves, but redistribute after a leaf death takes whatever is up — if the
// only survivor has no executors, the dead leaf's tasks land on a queue
// nothing drains, and no later event re-routes them (an idle executor-less
// leaf stops changing, so it stops reporting). A leaf that stays in that
// state for two consecutive ticks while a sibling *could* run work is
// evacuated — its downstream instances destroyed, which drops the queued
// copies, since each holds only work this root routed there — and its routed
// tasks replayed through the normal routing path. A forwarder child reports
// its subtree's summed executors, so a mid-tier subtree left with no
// executors is rescued the same way as a bare dispatcher.
func (f *Forwarder) rescueStarvedLeaves() {
	defer f.wg.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		f.mu.Lock()
		// A rescue only helps when some other up leaf can run the tasks.
		runnable := false
		for _, l := range f.leaves {
			if l.up && l.cap.Executors > 0 {
				runnable = true
				break
			}
		}
		type starvedLeaf struct {
			idx int
			cli *wsrpc.Client
		}
		var starved []starvedLeaf
		for _, l := range f.leaves {
			if !runnable || !l.up || l.cap.Executors > 0 {
				l.starved = 0
				continue
			}
			l.starved++
			if l.starved >= 2 {
				l.starved = 0
				starved = append(starved, starvedLeaf{l.idx, l.cli})
			}
		}
		f.mu.Unlock()
		for _, s := range starved {
			if owed := f.owedBy(s.idx); len(owed) > 0 {
				f.logf("forward: leaf %d is executor-less but owes tasks, rescuing them", s.idx)
				f.evacuate(s.idx, s.cli)
				f.redistribute(s.idx, owed)
			}
		}
	}
}

// pickLeaf chooses the routing target for the next bundle: the up leaf with
// the lowest sched.Score, round-robin on ties. avoid is the leaf a
// failed attempt just came from (-1 = none); it loses ties but is not
// excluded — with one leaf it is still the only choice. Callers hold f.mu.
func (f *Forwarder) pickLeaf(avoid int) (*leaf, bool) {
	n := len(f.leaves)
	best := sched.PickChild(n, f.rr, avoid, func(i int) (int, bool) {
		l := f.leaves[i]
		return sched.Score(l.cap.Queued, l.cap.Outstanding, l.cap.IdleSlots, l.cap.Executors, l.inflight), l.up
	})
	if best < 0 {
		return nil, false
	}
	f.rr = (best + 1) % n
	return f.leaves[best], true
}

// waitRoutable blocks until at least one leaf is up or the deadline passes.
// Callers hold f.mu; the lock is released while parked.
func (f *Forwarder) waitRoutable(deadline time.Time) error {
	for {
		if f.closed {
			return fmt.Errorf("forward: closed")
		}
		for _, l := range f.leaves {
			if l.up {
				return nil
			}
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("forward: no dispatcher reachable")
		}
		t := time.AfterFunc(time.Until(deadline), f.routable.Broadcast)
		f.routable.Wait()
		t.Stop()
	}
}
