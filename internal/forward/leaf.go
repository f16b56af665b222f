package forward

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/wsrpc"
)

// leaf is one downstream dispatcher from the root's point of view: its
// connection (nil while down), the freshest capacity hint it reported, and
// the bundle-routing counters falkon-top surfaces per leaf.
type leaf struct {
	idx  int
	addr string

	cli *wsrpc.Client // nil while down
	up  bool
	gen int64 // bumped per reconnect; stamps log lines, not correctness

	// capOK is false when the leaf never acknowledged attach-parent (an
	// old dispatcher); such leaves are routed to round-robin.
	capOK    bool
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

// score is the routing cost of sending the next bundle here: estimated
// backlog (queued + outstanding + routed-but-unreported) minus idle slots.
// Lower is better; the idle-slot credit makes an idle leaf win over a
// backlogged one even when the backlogged leaf has more executors. Callers
// hold Forwarder.mu.
func (l *leaf) score() int {
	s := l.inflight
	if l.capOK {
		s += l.cap.Queued + l.cap.Outstanding - l.cap.IdleSlots
		if l.cap.Executors == 0 {
			// An executor-less leaf drains nothing: its empty queue would
			// otherwise look maximally idle and absorb bundles no one will
			// run. The first executor registration forces a capacity push,
			// lifting the penalty promptly.
			s += 1 << 20
		}
	}
	return s
}

// absorbHint installs a capacity report if it is fresher than the current
// one, resetting the unreported-routing estimate. Freshness is (Epoch, Seq)
// lexicographic: Seq restarts from 1 when the leaf process restarts, so a
// restarted leaf's hints must beat the dead incarnation's high-Seq
// leftovers on epoch alone — comparing raw Seq would freeze the routing
// table on pre-crash capacity (an idle leaf pushes nothing to correct it).
// Callers hold Forwarder.mu.
func (l *leaf) absorbHint(h fproto.CapacityHint) {
	if !l.capOK || h.Epoch > l.cap.Epoch || (h.Epoch == l.cap.Epoch && h.Seq >= l.cap.Seq) {
		l.cap = h
		l.inflight = 0
	}
}

// dialLeaf establishes leaf l's downstream connection and attaches the root
// as a tree parent. A leaf that rejects attach-parent (an old dispatcher
// without the capacity protocol) still works — it just routes round-robin.
// Called without Forwarder.mu; the caller installs the returned state.
func (f *Forwarder) dialLeaf(l *leaf) (*wsrpc.Client, fproto.CapacityHint, bool, error) {
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
		return nil, fproto.CapacityHint{}, false, err
	}
	if f.opts.NoCapacity {
		return cli, fproto.CapacityHint{}, false, nil
	}
	var hint fproto.CapacityHint
	err = cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: f.name()}, &hint)
	if err != nil {
		var remote *wsrpc.RemoteError
		if errors.As(err, &remote) {
			f.logf("forward: leaf %s has no capacity protocol, routing round-robin: %v", l.addr, err)
			return cli, fproto.CapacityHint{}, false, nil
		}
		cli.Close()
		return nil, fproto.CapacityHint{}, false, err
	}
	return cli, hint, true, nil
}

// onLeafNotify handles pushes from leaf idx: capacity hints update the
// routing table, result notifications resolve pending tasks.
func (f *Forwarder) onLeafNotify(idx int, method string, body json.RawMessage) {
	switch method {
	case fproto.NotifyCapacity:
		var h fproto.CapacityHint
		if err := json.Unmarshal(body, &h); err != nil {
			return
		}
		f.mu.Lock()
		if idx < len(f.leaves) {
			f.leaves[idx].absorbHint(h)
		}
		f.mu.Unlock()
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
// leaves. The instance mappings (byReal, downEPR) are kept: if the leaf
// merely lost its connection — or restarted on a journal — the redial path
// reattaches and drains any results buffered downstream before discarding
// the old downstream instances.
func (f *Forwarder) leafDown(l *leaf) {
	f.mu.Lock()
	if l.cli != nil {
		l.cli.Close()
	}
	l.cli = nil
	l.up = false
	f.mu.Unlock()
	f.logf("forward: leaf %s down, rerouting its pending tasks", l.addr)
	// Asynchronous: with no surviving leaf the reroute parks in waitRoutable,
	// and the supervisor must be free to redial — the very thing that makes
	// the system routable again. Safe to run concurrently with the redial's
	// own redistribute: routing re-pins each pending entry, and any task that
	// double-executes in the overlap dedupes at the root.
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.redistribute(l.idx)
	}()
}

// redialLeaf reconnects to l with jittered backoff, recovers what the old
// downstream instances still hold, and puts the leaf back in the routing
// set. Returns false when the forwarder closed instead.
func (f *Forwarder) redialLeaf(l *leaf) bool {
	for attempt := 0; ; attempt++ {
		select {
		case <-f.stop:
			return false
		case <-time.After(f.backoff.Delay(attempt)):
		}
		cli, hint, capOK, err := f.dialLeaf(l)
		if err != nil {
			continue
		}
		f.recoverLeafInstances(l, cli)
		f.mu.Lock()
		l.cli = cli
		l.up = true
		l.gen++
		l.capOK = capOK
		// absorbHint, not assignment: recoverLeafInstances above takes long
		// enough that a forced capacity push from the fresh incarnation (an
		// executor re-registering, say) can land first — overwriting it with
		// the attach-time snapshot would pin this leaf at its attach-moment
		// population until the next push, which an idle leaf never sends.
		l.absorbHint(hint)
		l.inflight = 0
		l.reconnects++
		f.routable.Broadcast()
		f.mu.Unlock()
		f.logf("forward: leaf %s reconnected (attempt %d)", l.addr, attempt+1)
		// Anything still routed here (no surviving leaf took it while we
		// were down) resubmits against the fresh connection.
		f.redistribute(l.idx)
		return true
	}
}

// recoverLeafInstances drains the old downstream instances on a freshly
// redialed leaf. If the leaf survived (connection blip) or recovered from
// its journal, reattaching by EPR flushes the results it buffered while
// detached — the root dedupes any overlap with rerouted replays. The
// recovered instance is then destroyed: its re-queued tasks are dropped so
// the root's own replay is the single execution, and the next bundle routed
// here creates a fresh downstream instance.
func (f *Forwarder) recoverLeafInstances(l *leaf, cli *wsrpc.Client) {
	type oldRoute struct {
		realEPR string
		inst    *finst
	}
	var olds []oldRoute
	f.mu.Lock()
	for k, inst := range f.byReal {
		if k.down == l.idx {
			olds = append(olds, oldRoute{k.epr, inst})
			delete(f.byReal, k)
		}
	}
	f.mu.Unlock()
	for _, o := range olds {
		var rep fproto.CreateInstanceReply
		err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
			ClientName: f.name(), WantNotifications: true, EPR: o.realEPR,
		}, &rep)
		if err == nil {
			// Buffered results were pushed during reattach and are being
			// dispatched through onLeafResults; restore the mapping just for
			// the destroy window, then drop the downstream instance.
			var out struct{}
			_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: o.realEPR}, &out)
		}
		o.inst.mu.Lock()
		if o.inst.downEPR[l.idx] == o.realEPR {
			o.inst.downEPR[l.idx] = ""
		}
		o.inst.mu.Unlock()
	}
}

// redistribute replays every task currently routed to leaf `from` through
// the normal routing path, which picks whatever leaf is healthiest now
// (possibly `from` itself, freshly reconnected). Tasks whose results landed
// in the meantime fall out via the done-map dedupe.
func (f *Forwarder) redistribute(from int) {
	f.mu.Lock()
	insts := make([]*finst, 0, len(f.byFwd))
	for _, inst := range f.byFwd {
		insts = append(insts, inst)
	}
	f.mu.Unlock()
	total := 0
	for _, inst := range insts {
		if inst.destroyed.Load() {
			continue
		}
		inst.mu.Lock()
		ts := inst.takePendingFor(from)
		inst.mu.Unlock()
		if len(ts) == 0 {
			continue
		}
		total += len(ts)
		var trace uint64
		if len(ts) > 0 {
			trace = ts[0].Trace
		}
		for start := 0; start < len(ts); start += f.bundle {
			end := min(start+f.bundle, len(ts))
			if err := f.routeBundle(inst, ts[start:end], trace, from); err != nil {
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
// state for two consecutive ticks while a sibling *could* run work first
// gets its downstream instances destroyed (which drops the queued copies —
// each downstream instance holds only work this root routed there) and then
// its routed tasks replayed through the normal routing path. Any stragglers
// that raced the destroy dedupe at the root like any rerouted replay.
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
		// A rescue only helps when some other up leaf can actually run the
		// tasks; a legacy leaf (no capacity protocol) is assumed able.
		runnable := false
		for _, l := range f.leaves {
			if l.up && (!l.capOK || l.cap.Executors > 0) {
				runnable = true
				break
			}
		}
		var starved []int
		for _, l := range f.leaves {
			if !runnable || !l.up || !l.capOK || l.cap.Executors > 0 {
				l.starved = 0
				continue
			}
			l.starved++
			if l.starved >= 2 {
				l.starved = 0
				starved = append(starved, l.idx)
			}
		}
		f.mu.Unlock()
		for _, idx := range starved {
			if f.owesTasks(idx) {
				f.logf("forward: leaf %d is executor-less but owes tasks, rescuing them", idx)
				f.dropDownstreamInstances(idx)
				f.redistribute(idx)
			}
		}
	}
}

// dropDownstreamInstances destroys every downstream instance on leaf idx,
// dropping whatever that dispatcher still holds queued for this root. The
// next bundle routed there creates a fresh downstream instance.
func (f *Forwarder) dropDownstreamInstances(idx int) {
	type oldRoute struct {
		epr  string
		inst *finst
	}
	var olds []oldRoute
	f.mu.Lock()
	var cli *wsrpc.Client
	if idx < len(f.leaves) && f.leaves[idx].up {
		cli = f.leaves[idx].cli
	}
	for k, inst := range f.byReal {
		if k.down == idx {
			olds = append(olds, oldRoute{k.epr, inst})
			delete(f.byReal, k)
		}
	}
	f.mu.Unlock()
	for _, o := range olds {
		o.inst.mu.Lock()
		if o.inst.downEPR[idx] == o.epr {
			o.inst.downEPR[idx] = ""
		}
		o.inst.mu.Unlock()
		if cli != nil {
			var out struct{}
			_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: o.epr}, &out)
		}
	}
}

// owesTasks reports whether any instance has pending tasks routed to leaf
// idx.
func (f *Forwarder) owesTasks(idx int) bool {
	f.mu.Lock()
	insts := make([]*finst, 0, len(f.byFwd))
	for _, inst := range f.byFwd {
		insts = append(insts, inst)
	}
	f.mu.Unlock()
	for _, inst := range insts {
		inst.mu.Lock()
		for _, pe := range inst.pending {
			if pe.leaf == idx {
				inst.mu.Unlock()
				return true
			}
		}
		inst.mu.Unlock()
	}
	return false
}

// pickLeaf chooses the routing target for the next bundle: the up leaf with
// the lowest backlog score, round-robin on ties (and therefore plain
// round-robin when no leaf speaks the capacity protocol, since all scores
// sit at zero in steady state). avoid is the leaf a failed attempt just
// came from (-1 = none); it loses ties but is not excluded — with one leaf
// it is still the only choice. Callers hold f.mu.
func (f *Forwarder) pickLeaf(avoid int) (*leaf, bool) {
	var best *leaf
	n := len(f.leaves)
	for i := 0; i < n; i++ {
		l := f.leaves[(f.rr+i)%n]
		if !l.up {
			continue
		}
		if best == nil || l.score() < best.score() ||
			(l.score() == best.score() && best.idx == avoid && l.idx != avoid) {
			best = l
		}
	}
	if best == nil {
		return nil, false
	}
	f.rr = (best.idx + 1) % n
	return best, true
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
