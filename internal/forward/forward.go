// Package forward implements the root of Falkon's hierarchical dispatch
// tree (paper §6, Figure 16; scaled out in "Towards Loosely-Coupled
// Programming on Petascale Systems"). Clients talk to the root exactly as
// they would to a flat dispatcher; the root owns the instance space and
// ships work downstream to leaf dispatchers in task bundles, amortizing the
// per-task envelope cost the same way client-side bundling does. Each leaf
// runs the full scheduling core against its own executor pool and reports
// capacity upward — queue depth, outstanding tasks, idle slots — so the
// root routes every bundle to the leaf with the most headroom. Results
// aggregate back through the root, which buffers them per instance and
// replays any work a dead leaf still owed.
//
// Leaves are ordinary dispatchers, and a leaf can itself be another
// forwarder, giving trees deeper than two levels: a forwarder answers
// attach-parent like a dispatcher, reporting the summed capacity of its own
// children, so every tier routes by the same protocol.
package forward

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// routeTimeout bounds how long a submit blocks waiting for any leaf to be
// routable before failing upstream.
const routeTimeout = 30 * time.Second

// Options configures a Forwarder.
type Options struct {
	// Dispatchers lists downstream leaf addresses (at least one). Every
	// leaf must be reachable at New; afterwards each is redialed
	// independently with backoff.
	Dispatchers []string
	// Security and PSK apply to both the upstream listener and the
	// downstream connections (the paper's deployments use one site-wide
	// security configuration).
	Security wsrpc.SecurityProfile
	PSK      []byte
	// Bundle is the root→leaf bundle size: submissions are re-chunked into
	// bundles of this many tasks before routing (default 64).
	Bundle int
	// Backoff shapes leaf redial pacing (zero value = backoff.Default).
	Backoff backoff.Policy
	// Logf receives forwarder logs; nil silences them.
	Logf func(format string, args ...any)
	// Metrics receives the forwarder's own wsrpc instruments (upstream
	// server + downstream client views). When nil a private registry is
	// created (see Forwarder.Metrics).
	Metrics *obs.Registry
}

// realKey disambiguates downstream EPRs: every leaf numbers its instances
// independently, so the same EPR string can exist on several.
type realKey struct {
	down int
	epr  string
}

// Forwarder is the dispatch-tree root. Create with New, then Listen.
type Forwarder struct {
	opts    Options
	srv     *wsrpc.Server
	reg     *obs.Registry
	backoff backoff.Policy
	bundle  int
	stop    chan struct{}
	wg      sync.WaitGroup

	// mu guards the leaf table and instance maps. Lock order: mu →
	// finst.mu; neither is held across a downstream call.
	mu       sync.Mutex
	leaves   []*leaf
	rr       int                // round-robin cursor for score ties
	byFwd    map[string]*finst  // root EPR → instance
	byReal   map[realKey]*finst // (leaf, downstream EPR) → instance
	nextEPR  int64
	closed   bool
	routable *sync.Cond // signaled when a leaf comes up

	// parents are the upstream connections attached as tree parents; they
	// receive this forwarder's summed capacity (see parent.go). nParents
	// makes the no-parent check on the submit path one atomic load.
	parents  map[uint64]*wsrpc.Peer
	nParents atomic.Int32
	capSeq   uint64 // guarded by mu
	epoch    int64  // boot time, the Epoch of every hint reported upward
}

// New connects to every leaf dispatcher, attaches as their tree parent, and
// returns an unstarted forwarder.
func New(opts Options) (*Forwarder, error) {
	if len(opts.Dispatchers) == 0 {
		return nil, fmt.Errorf("forward: no dispatchers configured")
	}
	f := &Forwarder{
		opts:    opts,
		reg:     opts.Metrics,
		backoff: opts.Backoff,
		bundle:  opts.Bundle,
		stop:    make(chan struct{}),
		byFwd:   make(map[string]*finst),
		byReal:  make(map[realKey]*finst),
		parents: make(map[uint64]*wsrpc.Peer),
		epoch:   time.Now().UnixNano(),
	}
	if f.reg == nil {
		f.reg = obs.NewRegistry()
	}
	if f.backoff == (backoff.Policy{}) {
		f.backoff = backoff.Default
	}
	if f.bundle <= 0 {
		f.bundle = 64
	}
	f.routable = sync.NewCond(&f.mu)
	// Every leaf slot exists before any leaf is dialed: attach-parent makes a
	// leaf start pushing capacity notifies immediately, and the notify
	// handler indexes f.leaves — registration must not race the first push.
	for i, addr := range opts.Dispatchers {
		f.leaves = append(f.leaves, &leaf{idx: i, addr: addr})
	}
	for _, l := range f.leaves {
		cli, hint, err := f.dialLeaf(l)
		if err != nil {
			f.closeLeaves()
			return nil, fmt.Errorf("forward: dial dispatcher %s: %w", l.addr, err)
		}
		f.mu.Lock()
		l.cli = cli
		l.up = true
		// absorbHint, not assignment: a capacity push that beat the
		// attach-parent reply here must not be rolled back to the older
		// attach-time snapshot.
		l.absorbHint(hint)
		f.mu.Unlock()
	}
	for _, l := range f.leaves {
		f.wg.Add(1)
		go f.superviseLeaf(l)
	}
	f.wg.Add(1)
	go f.rescueStarvedLeaves()
	f.srv = wsrpc.NewServer(wsrpc.ServerOptions{Security: opts.Security, PSK: opts.PSK, Logf: opts.Logf, Metrics: f.reg})
	f.register()
	f.srv.OnDisconnect(f.onUpstreamDisconnect)
	return f, nil
}

// Listen binds the upstream listener.
func (f *Forwarder) Listen(addr string) error { return f.srv.Listen(addr) }

// Addr returns the upstream address.
func (f *Forwarder) Addr() string { return f.srv.Addr() }

// name identifies this root to its leaves (attach-parent, downstream
// instance names).
func (f *Forwarder) name() string { return "falkon-forwarder" }

func (f *Forwarder) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Close tears down both sides.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.stop)
	f.routable.Broadcast()
	f.mu.Unlock()
	err := f.srv.Close()
	f.closeLeaves()
	f.wg.Wait()
	return err
}

func (f *Forwarder) closeLeaves() {
	var clis []*wsrpc.Client
	f.mu.Lock()
	for _, l := range f.leaves {
		if l.cli != nil {
			clis = append(clis, l.cli)
			l.cli = nil
		}
		l.up = false
	}
	f.mu.Unlock()
	// Closed outside f.mu: Close waits for the connection's read loop, which
	// may itself be waiting for f.mu to absorb a push from that leaf.
	for _, cli := range clis {
		cli.Close()
	}
}

// register installs the client-facing protocol handlers.
func (f *Forwarder) register() {
	f.srv.Register(fproto.MethodCreateInstance, f.handleCreateInstance)
	f.srv.Register(fproto.MethodDestroyInstance, f.handleDestroyInstance)
	f.srv.Register(fproto.MethodSubmit, f.handleSubmit)
	f.srv.Register(fproto.MethodCollect, f.handleCollect)
	f.srv.Register(fproto.MethodStats, f.handleStats)
	f.srv.Register(fproto.MethodMetrics, f.handleMetrics)
	f.srv.Register(fproto.MethodEvents, f.handleEvents)
	f.srv.Register(fproto.MethodAttachParent, f.handleAttachParent)
}

// Metrics returns the forwarder's own instrument registry (its wsrpc
// traffic on both sides; leaf metrics are fetched and merged per request).
func (f *Forwarder) Metrics() *obs.Registry { return f.reg }

// onUpstreamDisconnect detaches instances bound to a dropped client
// connection so their results buffer for redelivery on reattach, and drops
// the connection from the parent set.
func (f *Forwarder) onUpstreamDisconnect(p *wsrpc.Peer) {
	f.mu.Lock()
	delete(f.parents, p.ID())
	f.nParents.Store(int32(len(f.parents)))
	f.mu.Unlock()
	for _, inst := range f.instances() {
		inst.mu.Lock()
		if inst.peer == upstreamPeer(p) {
			inst.peer = nil
		}
		inst.mu.Unlock()
	}
}

// instances snapshots the root instances.
func (f *Forwarder) instances() []*finst {
	f.mu.Lock()
	defer f.mu.Unlock()
	insts := make([]*finst, 0, len(f.byFwd))
	for _, inst := range f.byFwd {
		insts = append(insts, inst)
	}
	return insts
}

// lookup resolves a root EPR.
func (f *Forwarder) lookup(fwdEPR string) (*finst, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	inst := f.byFwd[fwdEPR]
	if inst == nil {
		return nil, fmt.Errorf("forward: no such instance %q", fwdEPR)
	}
	return inst, nil
}

func (f *Forwarder) handleCreateInstance(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.CreateInstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.EPR != "" {
		return f.reattachInstance(p, &req)
	}
	inst := newFinst(len(f.leaves))
	inst.tenant = req.Tenant
	if req.WantNotifications {
		inst.peer = p
		inst.notify = true
	}
	f.mu.Lock()
	f.nextEPR++
	inst.epr = fmt.Sprintf("fwd-%d", f.nextEPR)
	f.byFwd[inst.epr] = inst
	f.mu.Unlock()
	// Downstream instances are created lazily, on the first bundle routed
	// to each leaf — an instance that never submits costs the leaves
	// nothing, and creation is retried wherever routing lands.
	return fproto.CreateInstanceReply{EPR: inst.epr}, nil
}

// reattachInstance re-binds a root instance to a reconnecting client and
// flushes results buffered while it was detached.
func (f *Forwarder) reattachInstance(p *wsrpc.Peer, req *fproto.CreateInstanceRequest) (any, error) {
	inst, err := f.lookup(req.EPR)
	if err != nil {
		return nil, err
	}
	inst.mu.Lock()
	inst.peer = p
	inst.notify = req.WantNotifications
	var flush []task.Result
	if inst.notify {
		flush = inst.takeResults(0)
	}
	inst.mu.Unlock()
	if len(flush) > 0 {
		if err := p.Notify(fproto.NotifyResults, fproto.ResultsNotify{EPR: inst.epr, Results: flush}); err != nil {
			inst.mu.Lock()
			for _, r := range flush {
				inst.addResult(r)
			}
			inst.mu.Unlock()
		}
	}
	return fproto.CreateInstanceReply{EPR: req.EPR, Recovered: true}, nil
}

func (f *Forwarder) handleDestroyInstance(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.DestroyInstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.Unclaimed {
		// A forwarder keeps no journal, so it never holds a recovered
		// instance: whatever answers to this EPR belongs to a live client.
		return nil, fmt.Errorf("forward: instance %q is not an unclaimed recovered instance", req.EPR)
	}
	inst, err := f.lookup(req.EPR)
	if err != nil {
		return nil, err
	}
	inst.destroyed.Store(true)
	type downRef struct {
		cli *wsrpc.Client
		epr string
	}
	var downs []downRef
	f.mu.Lock()
	delete(f.byFwd, inst.epr)
	f.mu.Unlock()
	inst.mu.Lock()
	eprs := append([]string(nil), inst.downEPR...)
	inst.mu.Unlock()
	f.mu.Lock()
	for i, epr := range eprs {
		if epr == "" {
			continue
		}
		delete(f.byReal, realKey{i, epr})
		if l := f.leaves[i]; l.up {
			downs = append(downs, downRef{l.cli, epr})
		}
	}
	f.mu.Unlock()
	for _, d := range downs {
		var out struct{}
		if err := d.cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: d.epr}, &out); err != nil {
			f.logf("forward: destroy downstream %s: %v", d.epr, err)
		}
	}
	return struct{}{}, nil
}

func (f *Forwarder) handleSubmit(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.SubmitRequest
	if err := wsrpc.UnmarshalBody(body, &req); err != nil {
		return nil, err
	}
	inst, err := f.lookup(req.EPR)
	if err != nil {
		return nil, err
	}
	// Idempotent resubmission, mirroring the dispatcher's instance
	// semantics: tasks whose delivery is still owed are dropped (their
	// results are coming); tasks already delivered re-run.
	fresh := make([]task.Task, 0, len(req.Tasks))
	inst.mu.Lock()
	for _, t := range req.Tasks {
		if _, owed := inst.pending[t.ID]; !owed {
			fresh = append(fresh, t)
		}
	}
	inst.mu.Unlock()
	// Re-chunk into root→leaf bundles: an upstream mega-bundle spreads
	// across leaves, while per-bundle envelope cost stays amortized.
	for start := 0; start < len(fresh); start += f.bundle {
		end := min(start+f.bundle, len(fresh))
		chunk := fresh[start:end]
		if err := f.routeBundle(inst, chunk, chunk[0].Trace, -1); err != nil {
			return nil, err
		}
	}
	reply := fproto.SubmitReply{Accepted: len(req.Tasks), Deduped: len(req.Tasks) - len(fresh)}
	if f.nParents.Load() > 0 {
		// An attached parent gets this forwarder's summed capacity
		// piggy-backed on the acknowledgment, as from a dispatcher.
		f.mu.Lock()
		if _, ok := f.parents[p.ID()]; ok {
			h := f.capacityLocked()
			reply.Capacity = &h
		}
		f.mu.Unlock()
	}
	return reply, nil
}

// ensureDown returns inst's EPR on leaf idx, creating the downstream
// instance on cli if this is the first bundle routed there. Concurrent
// submits for the same (instance, leaf) serialize on a creation barrier so
// only one downstream instance exists.
func (f *Forwarder) ensureDown(inst *finst, idx int, cli *wsrpc.Client) (string, error) {
	inst.mu.Lock()
	for {
		if epr := inst.downEPR[idx]; epr != "" {
			inst.mu.Unlock()
			return epr, nil
		}
		ch := inst.creating[idx]
		if ch == nil {
			break
		}
		inst.mu.Unlock()
		<-ch
		inst.mu.Lock()
	}
	ch := make(chan struct{})
	inst.creating[idx] = ch
	inst.mu.Unlock()
	var rep fproto.CreateInstanceReply
	// The root always subscribes to notifications: results stream upward
	// as they finish, whether the client polls or pushes.
	err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
		ClientName:        f.name() + "/" + inst.epr,
		WantNotifications: true,
		Tenant:            inst.tenant,
	}, &rep)
	inst.mu.Lock()
	inst.creating[idx] = nil
	close(ch)
	if err != nil {
		inst.mu.Unlock()
		return "", err
	}
	inst.downEPR[idx] = rep.EPR
	inst.mu.Unlock()
	f.mu.Lock()
	f.byReal[realKey{idx, rep.EPR}] = inst
	f.mu.Unlock()
	return rep.EPR, nil
}

// routeBundle ships one bundle to the healthiest leaf, retrying across
// leaves on failure. The bundle's tasks are recorded pending (with their
// target leaf) before the downstream call, so a leaf dying mid-submit can
// never lose them — redistribute replays whatever the dead leaf owed.
// avoid biases the first pick away from a leaf that just failed (-1 =
// none).
func (f *Forwarder) routeBundle(inst *finst, tasks []task.Task, trace uint64, avoid int) error {
	deadline := time.Now().Add(routeTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if inst.destroyed.Load() {
			return fmt.Errorf("forward: instance %q destroyed", inst.epr)
		}
		f.mu.Lock()
		if err := f.waitRoutable(deadline); err != nil {
			f.mu.Unlock()
			if lastErr != nil {
				return fmt.Errorf("%w (last leaf error: %v)", err, lastErr)
			}
			return err
		}
		l, ok := f.pickLeaf(avoid)
		if !ok {
			f.mu.Unlock()
			continue
		}
		cli, idx := l.cli, l.idx
		l.inflight += len(tasks)
		f.mu.Unlock()

		// The first attempt of a fresh submit records its tasks owed; a
		// retry or replay re-pins only tasks still owed, so one whose result
		// landed meanwhile does not become owed a second time.
		inst.mu.Lock()
		for _, t := range tasks {
			if _, owed := inst.pending[t.ID]; owed || (attempt == 0 && avoid < 0) {
				inst.pending[t.ID] = pentry{t: t, leaf: idx}
			}
		}
		inst.mu.Unlock()

		epr, err := f.ensureDown(inst, idx, cli)
		if err == nil {
			var rep fproto.SubmitReply
			// The bundle head's trace rides the downstream envelope, keeping
			// the forwarded hop attributable across the EPR rewrite.
			err = cli.CallTrace(fproto.MethodSubmit, fproto.SubmitRequest{EPR: epr, Tasks: tasks}, &rep, trace, 0)
			if err == nil && rep.RetryAfterMillis > 0 {
				// The leaf's admission control deferred the bundle (the
				// instance's tenant is over quota or rate there). Honor the
				// hint the way a direct client would: back off, then route
				// again — possibly to a leaf with headroom. The wait is
				// backpressure, not failure, so it extends the routing
				// deadline instead of consuming it.
				f.mu.Lock()
				l.inflight -= len(tasks)
				f.mu.Unlock()
				wait := time.Duration(rep.RetryAfterMillis) * time.Millisecond
				deadline = deadline.Add(wait)
				select {
				case <-f.stop:
					f.failBundle(inst, tasks, idx)
					return fmt.Errorf("forward: closed")
				case <-time.After(wait):
				}
				continue
			}
			if err == nil {
				f.mu.Lock()
				l.bundles++
				l.tasks += int64(len(tasks))
				changed := rep.Capacity != nil && l.absorbHint(*rep.Capacity)
				f.mu.Unlock()
				if changed {
					f.pushCapacity()
				}
				return nil
			}
			var remote *wsrpc.RemoteError
			if errors.As(err, &remote) {
				// The downstream instance evaporated (leaf restarted without
				// its state): drop the stale mapping and recreate on retry.
				f.mu.Lock()
				delete(f.byReal, realKey{idx, epr})
				f.mu.Unlock()
				inst.mu.Lock()
				if inst.downEPR[idx] == epr {
					inst.downEPR[idx] = ""
				}
				inst.mu.Unlock()
			}
		}
		lastErr = err
		f.mu.Lock()
		l.inflight -= len(tasks)
		f.mu.Unlock()
		avoid = idx
		if !time.Now().Before(deadline) {
			f.failBundle(inst, tasks, idx)
			return fmt.Errorf("forward: route bundle: %w", lastErr)
		}
		select {
		case <-f.stop:
			f.failBundle(inst, tasks, idx)
			return fmt.Errorf("forward: closed")
		case <-time.After(f.backoff.Delay(attempt)):
		}
	}
}

// failBundle withdraws a bundle the root is about to report failed
// upstream: entries still pointing at the failed attempt leave the pending
// set so an abandoned submit doesn't execute behind the caller's back.
func (f *Forwarder) failBundle(inst *finst, tasks []task.Task, leafIdx int) {
	inst.mu.Lock()
	for _, t := range tasks {
		if pe, ok := inst.pending[t.ID]; ok && pe.leaf == leafIdx {
			delete(inst.pending, t.ID)
		}
	}
	inst.mu.Unlock()
}

// onLeafResults resolves results arriving from leaf idx against the owed
// table: a result for a pending task clears its entry and pushes straight
// upstream or buffers for Collect; any other (a replay racing the original,
// a duplicate push) is no longer owed and drops.
func (f *Forwarder) onLeafResults(idx int, realEPR string, results []task.Result) {
	f.mu.Lock()
	inst := f.byReal[realKey{idx, realEPR}]
	if inst != nil && idx < len(f.leaves) {
		f.leaves[idx].results += int64(len(results))
	}
	f.mu.Unlock()
	if inst == nil || inst.destroyed.Load() {
		return
	}
	var deliver []task.Result
	inst.mu.Lock()
	for _, r := range results {
		if _, owed := inst.pending[r.ID]; owed {
			delete(inst.pending, r.ID)
			deliver = append(deliver, r)
		}
	}
	if len(deliver) == 0 {
		inst.mu.Unlock()
		return
	}
	peer, notify := inst.peer, inst.notify
	if notify && peer != nil {
		inst.mu.Unlock()
		if err := peer.Notify(fproto.NotifyResults, fproto.ResultsNotify{EPR: inst.epr, Results: deliver}); err != nil {
			// The upstream connection died mid-push: buffer for redelivery
			// when the client reattaches.
			inst.mu.Lock()
			for _, r := range deliver {
				inst.addResult(r)
			}
			inst.mu.Unlock()
		}
		return
	}
	for _, r := range deliver {
		inst.addResult(r)
	}
	inst.mu.Unlock()
}

func (f *Forwarder) handleCollect(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.CollectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(req.WaitMillis) * time.Millisecond)
	for {
		inst, err := f.lookup(req.EPR)
		if err != nil || inst.destroyed.Load() {
			return nil, fmt.Errorf("forward: no such instance %q", req.EPR)
		}
		inst.mu.Lock()
		results := inst.takeResults(req.Max)
		pendingN := len(inst.pending)
		if len(results) > 0 || req.WaitMillis <= 0 || !time.Now().Before(deadline) {
			inst.mu.Unlock()
			return fproto.CollectReply{Results: results, Pending: pendingN}, nil
		}
		w := make(chan struct{}, 1)
		inst.waiters = append(inst.waiters, w)
		inst.mu.Unlock()
		select {
		case <-w:
		case <-time.After(time.Until(deadline)):
		}
	}
}

// handleStats aggregates leaf dispatchers' stats and reports the per-leaf
// rows plus the tree depth. A dead leaf contributes its routing counters
// but no downstream numbers.
func (f *Forwarder) handleStats(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
	return f.Stats(), nil
}

// Stats snapshots the tree from the root: aggregate totals plus one row per
// leaf.
func (f *Forwarder) Stats() fproto.StatsReply {
	type leafSnap struct {
		addr string
		cli  *wsrpc.Client
		up   bool
		row  fproto.LeafStats
	}
	f.mu.Lock()
	snaps := make([]leafSnap, len(f.leaves))
	for i, l := range f.leaves {
		snaps[i] = leafSnap{addr: l.addr, cli: l.cli, up: l.up, row: fproto.LeafStats{
			Leaf:       l.addr,
			Up:         l.up,
			Bundles:    l.bundles,
			Tasks:      l.tasks,
			Results:    l.results,
			Reroutes:   l.reroutes,
			Reconnects: l.reconnects,
		}}
	}
	f.mu.Unlock()
	insts := f.instances()
	for _, inst := range insts {
		inst.mu.Lock()
		for _, pe := range inst.pending {
			if pe.leaf >= 0 && pe.leaf < len(snaps) {
				snaps[pe.leaf].row.Pending++
			}
		}
		inst.mu.Unlock()
	}
	var agg fproto.StatsReply
	tenantAgg := make(map[string]*fproto.TenantStats)
	childDepth := 1
	for i := range snaps {
		s := &snaps[i]
		if s.up && s.cli != nil {
			var st fproto.StatsReply
			if err := s.cli.Call(fproto.MethodStats, nil, &st); err == nil {
				for _, ts := range st.Tenants {
					row := tenantAgg[ts.Name]
					if row == nil {
						row = &fproto.TenantStats{Name: ts.Name, Weight: ts.Weight, Quota: ts.Quota, Rate: ts.Rate}
						tenantAgg[ts.Name] = row
					}
					row.Queued += ts.Queued
					row.InFlight += ts.InFlight
					row.Submitted += ts.Submitted
					row.Completed += ts.Completed
					row.Failed += ts.Failed
					row.Throttled += ts.Throttled
				}
				s.row.Queued = st.Queued
				s.row.Outstanding = st.Outstanding
				s.row.Executors = st.TotalExecutors
				s.row.Busy = st.BusyExecutors
				agg.Queued += st.Queued
				agg.Outstanding += st.Outstanding
				agg.IdleExecutors += st.IdleExecutors
				agg.BusyExecutors += st.BusyExecutors
				agg.TotalExecutors += st.TotalExecutors
				agg.Submitted += st.Submitted
				agg.Completed += st.Completed
				agg.Failed += st.Failed
				agg.Retried += st.Retried
				agg.Dispatched += st.Dispatched
				agg.Duplicates += st.Duplicates
				agg.CacheHits += st.CacheHits
				agg.CacheMisses += st.CacheMisses
				if d := max(st.Depth, 1); d > childDepth {
					childDepth = d
				}
				agg.Leaves = append(agg.Leaves, s.row)
				// A forwarder child reports its own leaf rows: flatten
				// them upward so the root sees the whole tree, not just
				// its direct children — falkon-top's per-leaf panel and
				// the chaos harness's healed check depend on true leaves
				// being visible at any depth.
				agg.Leaves = append(agg.Leaves, st.Leaves...)
				continue
			}
			s.row.Up = false
		}
		agg.Leaves = append(agg.Leaves, s.row)
	}
	agg.Depth = childDepth + 1
	agg.Instances = len(insts)
	if len(tenantAgg) > 0 {
		names := make([]string, 0, len(tenantAgg))
		for name := range tenantAgg {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			agg.Tenants = append(agg.Tenants, *tenantAgg[name])
		}
	}
	return agg
}

// handleMetrics merges every leaf's registry snapshot with the forwarder's
// own: counters and gauges sum, fixed-layout histograms merge bucket-wise,
// so stage quantiles stay computable across the whole tree.
func (f *Forwarder) handleMetrics(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
	return f.MergedMetricsSnapshot(), nil
}

// liveClients snapshots the connections of currently-up leaves.
func (f *Forwarder) liveClients() []*wsrpc.Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*wsrpc.Client
	for _, l := range f.leaves {
		if l.up && l.cli != nil {
			out = append(out, l.cli)
		}
	}
	return out
}

// MergedMetricsSnapshot folds every reachable leaf's snapshot into the
// forwarder's own. An unreachable leaf is skipped rather than failing the
// whole aggregate; its contribution simply drops out of this sample.
func (f *Forwarder) MergedMetricsSnapshot() obs.MetricsSnapshot {
	agg := f.reg.Snapshot()
	for _, cli := range f.liveClients() {
		var ms fproto.MetricsReply
		if err := cli.Call(fproto.MethodMetrics, nil, &ms); err != nil {
			continue
		}
		agg.Merge(ms)
	}
	return agg
}

// handleEvents interleaves every leaf's trace window, ordered by timestamp.
// Sequence numbers are per-leaf, so NextSeq is 0: pagination is unavailable
// through a forwarder.
func (f *Forwarder) handleEvents(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.EventsRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
	}
	var events []obs.Event
	for _, cli := range f.liveClients() {
		var er fproto.EventsReply
		if err := cli.Call(fproto.MethodEvents, req, &er); err != nil {
			// Same policy as the metrics merge: an unreachable leaf drops
			// out of this sample instead of failing the whole window.
			continue
		}
		events = append(events, er.Events...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if req.Max > 0 && len(events) > req.Max {
		events = events[len(events)-req.Max:]
	}
	return fproto.EventsReply{Events: events, NextSeq: 0}, nil
}
