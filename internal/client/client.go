// Package client implements the Falkon client library: it creates a
// dispatcher instance (factory/instance pattern), submits tasks with
// client-dispatcher bundling, and collects results either through pushed
// notifications (message {8} of Figure 2) or by polling.
//
// With Reconnect enabled the client also rides out dispatcher restarts:
// it redials with jittered backoff, re-attaches to its instance (which a
// journaling dispatcher recovers from disk), idempotently resubmits every
// task still awaiting a result, and dedupes redelivered results by task
// ID — so the application sees each result exactly once no matter how
// many times the dispatcher crashed in between.
package client

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// Options configures Connect.
type Options struct {
	// DispatcherAddr is the dispatcher's wsrpc address, or a comma-separated
	// chain of addresses tried in order ("leaf:5001,root:5000"): in a
	// hierarchical tree the client attaches to its leaf and fails over to
	// the next address in the chain — typically the root — when the leaf
	// dies. Failing over to a dispatcher that doesn't know the instance
	// falls back to a fresh instance plus resubmission of owed tasks, the
	// same path as a journal-less restart.
	DispatcherAddr string
	// Name labels the client in dispatcher logs.
	Name string
	// Tenant names the tenant this client's instance belongs to ("" =
	// the dispatcher's default tenant). Against a multi-tenant dispatcher
	// the tenant determines fair-share weight, quota, and rate limit; a
	// pre-tenancy dispatcher ignores the field.
	Tenant string
	// Security and PSK must match the dispatcher.
	Security wsrpc.SecurityProfile
	PSK      []byte
	// BundleSize groups submissions into bundles of this many tasks
	// (default 1 = no bundling). Figure 5 sweeps this parameter.
	BundleSize int
	// Poll disables pushed result notifications in favour of Collect
	// polling (the firewall-friendly mode of §6).
	Poll bool
	// PollInterval is the Collect long-poll wait when Poll is set
	// (default 50 ms).
	PollInterval time.Duration

	// Reconnect enables crash-safe operation: on a dropped connection the
	// client redials with jittered backoff, re-attaches to its instance,
	// resubmits tasks still awaiting results (the dispatcher dedupes ones
	// it already holds), and drops duplicate redeliveries by task ID.
	Reconnect bool
	// ReconnectTimeout bounds one continuous outage (default 30s); past it
	// the client gives up and Submit/WaitN fail.
	ReconnectTimeout time.Duration
	// Backoff tunes the redial schedule (zero value = backoff.Default).
	Backoff backoff.Policy

	// Faults, when set, interposes transport fault injection on every
	// dial (chaos testing only).
	Faults wsrpc.ConnFaults
}

// Client is a connected Falkon client owning one dispatcher instance.
type Client struct {
	opts Options

	// addrs is the parsed DispatcherAddr chain; addrIdx (under mu) is the
	// element the live connection used, where redials start. eprIdx is the
	// address the current instance was created on — EPRs are per-dispatcher,
	// so a reconnect that lands elsewhere must not reattach by EPR (the same
	// name could be a stranger's instance there) and starts fresh instead.
	addrs   []string
	addrIdx int
	eprIdx  int

	// cluster is the HA cluster id the dispatcher reported at create time
	// ("" for a standalone dispatcher). Within a cluster the EPR is valid
	// on every member — standbys replay the leader's journal — so a
	// failover to another address in the chain reattaches by EPR (scoped by
	// the cluster id) instead of abandoning the instance.
	cluster string

	// traceBase is the random per-client base trace IDs are derived from:
	// a task's trace is traceBase + its ID, so the mapping is stable across
	// resubmission and unique across concurrent clients with overwhelming
	// probability.
	traceBase uint64

	mu   sync.Mutex
	cond *sync.Cond // broadcast on reconnect, close, and death
	cli  *wsrpc.Client
	epr  string
	gen  int // connection generation, bumped on every successful reconnect

	submitted  int64
	received   int64
	deduped    int64 // resubmitted tasks the dispatcher already held
	dupDrops   int64 // redelivered results dropped client-side
	reconnects int64
	throttled  int64 // bundles the dispatcher deferred with retry-after

	// pending tracks acknowledged tasks still awaiting results; done holds
	// every delivered result ID. Both exist only in Reconnect mode:
	// pending drives resubmission, done drives exactly-once delivery.
	pending map[task.ID]task.Task
	done    map[task.ID]struct{}

	closed  bool
	dead    bool
	deadErr error

	results  chan task.Result
	closedCh chan struct{}
	deadCh   chan struct{}

	pollStop chan struct{}
	pollDone chan struct{}
}

// Connect dials the dispatcher and creates a fresh instance.
func Connect(opts Options) (*Client, error) {
	if opts.BundleSize <= 0 {
		opts.BundleSize = 1
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 50 * time.Millisecond
	}
	if opts.ReconnectTimeout <= 0 {
		opts.ReconnectTimeout = 30 * time.Second
	}
	c := &Client{
		opts:      opts,
		addrs:     fproto.SplitAddrs(opts.DispatcherAddr),
		traceBase: randTraceBase(),
		results:   make(chan task.Result, 4096),
		closedCh:  make(chan struct{}),
		deadCh:    make(chan struct{}),
	}
	if len(c.addrs) == 0 {
		return nil, fmt.Errorf("client: no dispatcher address")
	}
	c.cond = sync.NewCond(&c.mu)
	if opts.Reconnect {
		c.pending = make(map[task.ID]task.Task)
		c.done = make(map[task.ID]struct{})
	}
	cli, err := c.dial()
	if err != nil {
		return nil, err
	}
	var reply fproto.CreateInstanceReply
	err = cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
		ClientName:        opts.Name,
		WantNotifications: !opts.Poll,
		Tenant:            opts.Tenant,
	}, &reply)
	if err != nil {
		cli.Close()
		return nil, fmt.Errorf("client: create instance: %w", err)
	}
	c.cli = cli
	c.epr = reply.EPR
	c.eprIdx = c.addrIdx
	c.cluster = reply.Cluster
	go c.supervise(cli)
	if opts.Poll {
		c.pollStop = make(chan struct{})
		c.pollDone = make(chan struct{})
		go c.pollLoop()
	}
	return c, nil
}

// randTraceBase draws the per-client trace-ID base. A failed read falls
// back to the wall clock — uniqueness degrades, tracing still works.
func randTraceBase() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// dial connects to the first reachable address in the chain, starting at
// the one the previous connection used: a blip redials the same dispatcher
// (preserving the instance), a dead leaf rotates to the fallback.
func (c *Client) dial() (*wsrpc.Client, error) {
	c.mu.Lock()
	start := c.addrIdx
	c.mu.Unlock()
	var firstErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (start + i) % len(c.addrs)
		cli, err := wsrpc.Dial(c.addrs[idx], wsrpc.ClientOptions{
			Security: c.opts.Security,
			PSK:      c.opts.PSK,
			OnNotify: c.onNotify,
			Faults:   c.opts.Faults,
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.mu.Lock()
		c.addrIdx = idx
		c.mu.Unlock()
		return cli, nil
	}
	return nil, firstErr
}

// EPR returns the instance endpoint reference.
func (c *Client) EPR() string { c.mu.Lock(); defer c.mu.Unlock(); return c.epr }

// conn returns the live connection and its generation.
func (c *Client) conn() (*wsrpc.Client, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, fmt.Errorf("client: closed")
	}
	if c.dead {
		return nil, 0, fmt.Errorf("client: connection lost: %w", c.deadErr)
	}
	return c.cli, c.gen, nil
}

// awaitReconnect blocks until the connection generation moves past gen.
// false means the client closed or gave up instead.
func (c *Client) awaitReconnect(gen int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.gen == gen && !c.closed && !c.dead {
		c.cond.Wait()
	}
	return !c.closed && !c.dead
}

func (c *Client) markDead(err error) {
	c.mu.Lock()
	if !c.dead && !c.closed {
		c.dead = true
		c.deadErr = err
		close(c.deadCh)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// supervise watches the current connection and, in Reconnect mode,
// replaces it when it drops: redial with jittered backoff, re-attach to
// the instance (a journaling dispatcher recovers it across restarts; on an
// unknown EPR fall back to a fresh instance), resubmit every task still
// awaiting a result, and hand the new connection to the other goroutines.
func (c *Client) supervise(cli *wsrpc.Client) {
	for {
		select {
		case <-cli.Done():
		case <-c.closedCh:
			return
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if !c.opts.Reconnect {
			c.markDead(wsrpc.ErrClientClosed)
			return
		}
		next, ok := c.reconnect()
		if !ok {
			return
		}
		cli = next
	}
}

// reconnect runs the backoff redial loop for one outage. It returns the
// new connection, or ok=false when the client closed or gave up.
func (c *Client) reconnect() (*wsrpc.Client, bool) {
	start := time.Now()
	sched := backoff.NewSchedule(c.opts.Backoff)
	for {
		select {
		case <-c.closedCh:
			return nil, false
		case <-time.After(sched.Next()):
		}
		if time.Since(start) > c.opts.ReconnectTimeout {
			c.markDead(fmt.Errorf("reconnect timed out after %v", c.opts.ReconnectTimeout))
			return nil, false
		}
		cli, err := c.dial()
		if err != nil {
			continue
		}
		c.mu.Lock()
		epr, name, poll := c.epr, c.opts.Name, c.opts.Poll
		cluster := c.cluster
		if c.addrIdx != c.eprIdx && cluster == "" {
			// Failed over to a standalone dispatcher: the EPR means nothing
			// (or worse) there. Within an HA cluster the EPR stays valid on
			// every member, so keep it and let the new leader replay it.
			epr = ""
		}
		c.mu.Unlock()
		var reply fproto.CreateInstanceReply
		err = cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
			ClientName:        name,
			WantNotifications: !poll,
			EPR:               epr,
			Cluster:           cluster,
			Tenant:            c.opts.Tenant,
		}, &reply)
		var remote *wsrpc.RemoteError
		if errors.As(err, &remote) && epr != "" {
			// The dispatcher is up but doesn't know the instance (no journal,
			// or it was pruned): start fresh and resubmit everything.
			err = cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
				ClientName:        name,
				WantNotifications: !poll,
				Tenant:            c.opts.Tenant,
			}, &reply)
		}
		if err != nil {
			cli.Close()
			continue
		}
		c.mu.Lock()
		if c.closed {
			// Close ran while this attach was in flight and destroyed
			// through the dead connection; the instance is held here now.
			c.mu.Unlock()
			_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: reply.EPR}, nil)
			cli.Close()
			return nil, false
		}
		c.cli = cli
		c.epr = reply.EPR
		c.eprIdx = c.addrIdx
		c.cluster = reply.Cluster
		c.gen++
		c.reconnects++
		resubmit := make([]task.Task, 0, len(c.pending))
		for _, t := range c.pending {
			resubmit = append(resubmit, t)
		}
		c.mu.Unlock()
		c.cond.Broadcast()
		// Idempotent resubmission: the dispatcher drops tasks it still
		// holds (reply.Deduped) and re-runs the ones that died with the
		// crash. Errors here just trigger another supervise round.
		if err := c.submitTasks(resubmit, true); err == nil {
			return cli, true
		}
		select {
		case <-cli.Done(): // connection died again mid-resubmit; retry
		default:
			return cli, true // submit rejected but connection is live
		}
	}
}

// onNotify receives pushed results. It runs on the read loop; the results
// channel is buffered, and genuine backpressure falls back to a goroutine
// per overflow batch (rare).
func (c *Client) onNotify(method string, body json.RawMessage) {
	if method != fproto.NotifyResults {
		return
	}
	var n fproto.ResultsNotify
	if err := wsrpc.UnmarshalBody(body, &n); err != nil {
		return
	}
	c.deliver(n.Results)
}

// deliver pushes results to the channel, spilling to a goroutine if full so
// the transport read loop never stalls. In Reconnect mode it first drops
// results already delivered once — redeliveries are expected after a
// crash (the journal redelivers anything not provably collected) and after
// resubmission races, and this filter is what makes delivery exactly-once.
func (c *Client) deliver(rs []task.Result) {
	if c.done != nil {
		c.mu.Lock()
		fresh := rs[:0:0]
		for _, r := range rs {
			if _, dup := c.done[r.ID]; dup {
				c.dupDrops++
				continue
			}
			c.done[r.ID] = struct{}{}
			delete(c.pending, r.ID)
			fresh = append(fresh, r)
		}
		c.received += int64(len(fresh))
		c.mu.Unlock()
		for _, r := range fresh {
			select {
			case c.results <- r:
			default:
				go blockingDeliver(c.results, r)
			}
		}
		return
	}
	for i, r := range rs {
		select {
		case c.results <- r:
		default:
			rest := rs[i:]
			go func() {
				for _, r := range rest {
					c.results <- r
				}
			}()
			c.bumpReceived(len(rs))
			return
		}
	}
	c.bumpReceived(len(rs))
}

func blockingDeliver(ch chan<- task.Result, r task.Result) { ch <- r }

func (c *Client) bumpReceived(n int) {
	c.mu.Lock()
	c.received += int64(n)
	c.mu.Unlock()
}

// pollLoop drives Collect when notifications are disabled. In Reconnect
// mode it survives connection swaps by waiting out each outage.
func (c *Client) pollLoop() {
	defer close(c.pollDone)
	for {
		select {
		case <-c.pollStop:
			return
		default:
		}
		cli, gen, err := c.conn()
		if err != nil {
			return
		}
		var reply fproto.CollectReply
		err = cli.Call(fproto.MethodCollect, fproto.CollectRequest{
			EPR:        c.EPR(),
			WaitMillis: int(c.opts.PollInterval / time.Millisecond),
		}, &reply)
		if err != nil {
			var remote *wsrpc.RemoteError
			if !c.opts.Reconnect || errors.As(err, &remote) {
				return
			}
			if !c.awaitReconnect(gen) {
				return
			}
			continue
		}
		if len(reply.Results) > 0 {
			c.deliver(reply.Results)
		}
	}
}

// Submit sends tasks to the dispatcher in bundles of BundleSize. With a
// journaling dispatcher the acknowledgment means the bundle is durable; in
// Reconnect mode a bundle interrupted by a connection drop is retried
// after the reconnect (the dispatcher dedupes tasks it already accepted).
//
// Submit assigns each task a trace ID (in the caller's slice, so callers
// can correlate with span dumps) unless one is already set; a resubmitted
// task keeps its original trace, so every attempt joins one timeline.
func (c *Client) Submit(tasks []task.Task) error {
	for i := range tasks {
		if tasks[i].Trace == 0 {
			tasks[i].Trace = c.traceBase + uint64(tasks[i].ID)
			if tasks[i].Trace == 0 {
				tasks[i].Trace = 1
			}
		}
	}
	return c.submitTasks(tasks, false)
}

// submitTasks bundles tasks over the current connection; resubmit marks
// the reconnect path, where failures bounce back to the supervisor instead
// of waiting here.
func (c *Client) submitTasks(tasks []task.Task, resubmit bool) error {
	for len(tasks) > 0 {
		n := c.opts.BundleSize
		if n > len(tasks) {
			n = len(tasks)
		}
		bundle := tasks[:n]
		var reply fproto.SubmitReply
		for {
			cli, gen, err := c.conn()
			if err != nil {
				return fmt.Errorf("client: submit: %w", err)
			}
			// The envelope carries the bundle head's trace so transport-level
			// tooling can follow the submission hop; per-task context rides in
			// the task bodies. Reset the reply each attempt: its fields are
			// omitempty on the wire, so a retried call must not inherit the
			// previous attempt's throttle hint.
			reply = fproto.SubmitReply{}
			err = cli.CallTrace(fproto.MethodSubmit, fproto.SubmitRequest{EPR: c.EPR(), Tasks: bundle}, &reply, bundle[0].Trace, 0)
			if err == nil {
				if reply.RetryAfterMillis > 0 {
					// Admission backpressure: the dispatcher deferred the whole
					// bundle (tenant quota or rate limit). Honor the hint with
					// jitter — throttled clients must not re-flood in lockstep —
					// then retry the same bundle.
					c.mu.Lock()
					c.throttled++
					c.mu.Unlock()
					wait := time.Duration(reply.RetryAfterMillis) * time.Millisecond
					wait += time.Duration(rand.Int63n(int64(wait)/4 + 1))
					select {
					case <-time.After(wait):
					case <-c.closedCh:
						return fmt.Errorf("client: closed while awaiting retry-after")
					}
					continue
				}
				break
			}
			var remote *wsrpc.RemoteError
			if resubmit || !c.opts.Reconnect || errors.As(err, &remote) {
				return fmt.Errorf("client: submit: %w", err)
			}
			// Connection-level failure: wait out the outage and retry this
			// bundle on the replacement connection. Tasks the dispatcher
			// already journaled before the crash come back Deduped.
			if !c.awaitReconnect(gen) {
				_, _, cerr := c.conn()
				return fmt.Errorf("client: submit: %w", cerr)
			}
		}
		if reply.Accepted != n {
			return fmt.Errorf("client: submitted %d tasks, dispatcher accepted %d", n, reply.Accepted)
		}
		c.mu.Lock()
		c.deduped += int64(reply.Deduped)
		if !resubmit {
			c.submitted += int64(n)
			if c.pending != nil {
				for _, t := range bundle {
					if _, delivered := c.done[t.ID]; !delivered {
						c.pending[t.ID] = t
					}
				}
			}
		}
		c.mu.Unlock()
		tasks = tasks[n:]
	}
	return nil
}

// Results exposes the stream of finished task results.
func (c *Client) Results() <-chan task.Result { return c.results }

// WaitN blocks until n results arrive (cumulative across calls is not
// tracked; n results are read from the stream) or the timeout expires. In
// Reconnect mode it keeps waiting across dispatcher restarts and only
// fails once the client closes or gives up reconnecting.
func (c *Client) WaitN(n int, timeout time.Duration) ([]task.Result, error) {
	out := make([]task.Result, 0, n)
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for len(out) < n {
		select {
		case r := <-c.results:
			out = append(out, r)
		case <-c.deadCh:
			return out, fmt.Errorf("client: connection closed with %d/%d results", len(out), n)
		case <-c.closedCh:
			return out, fmt.Errorf("client: connection closed with %d/%d results", len(out), n)
		case <-deadline:
			return out, fmt.Errorf("client: timeout with %d/%d results", len(out), n)
		}
	}
	return out, nil
}

// Submitted returns the number of tasks submitted so far.
func (c *Client) Submitted() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.submitted }

// Reconnects counts successful reconnect+reattach cycles.
func (c *Client) Reconnects() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.reconnects }

// Throttled counts submit bundles the dispatcher deferred with a
// retry-after hint (tenant admission control) before eventually accepting.
func (c *Client) Throttled() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.throttled }

// Deduped counts resubmitted tasks the dispatcher already held (its side
// of the exactly-once story).
func (c *Client) Deduped() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.deduped }

// DuplicatesDropped counts redelivered results discarded client-side (this
// side of the exactly-once story).
func (c *Client) DuplicatesDropped() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.dupDrops }

// Stats fetches the dispatcher's state over the wire (the provisioner's
// {POLL} request, available to any client).
func (c *Client) Stats() (fproto.StatsReply, error) {
	cli, _, err := c.conn()
	if err != nil {
		return fproto.StatsReply{}, err
	}
	var st fproto.StatsReply
	err = cli.Call(fproto.MethodStats, nil, &st)
	return st, err
}

// Metrics fetches the dispatcher's full instrument snapshot — counters,
// gauges, and stage/RPC latency histograms (falkon.metrics). Through a
// forwarder the reply is the merge of every downstream dispatcher.
func (c *Client) Metrics() (fproto.MetricsReply, error) {
	cli, _, err := c.conn()
	if err != nil {
		return fproto.MetricsReply{}, err
	}
	var ms fproto.MetricsReply
	err = cli.Call(fproto.MethodMetrics, nil, &ms)
	return ms, err
}

// Events fetches task-lifecycle trace events recorded after sinceSeq (0 for
// the oldest retained); max bounds the batch (0 = all retained). The reply's
// NextSeq tails the stream on a direct dispatcher connection; through a
// forwarder it is 0 (pagination unavailable).
func (c *Client) Events(sinceSeq uint64, max int) (fproto.EventsReply, error) {
	cli, _, err := c.conn()
	if err != nil {
		return fproto.EventsReply{}, err
	}
	var er fproto.EventsReply
	err = cli.Call(fproto.MethodEvents, fproto.EventsRequest{SinceSeq: sinceSeq, Max: max}, &er)
	return er, err
}

// closeRetryTimeout bounds the destroy Close retries after an outage.
const closeRetryTimeout = 2 * time.Second

// destroyUnclaimed retries a destroy that met a dead connection during
// Close. The dispatcher may already be back with the instance recovered
// from its journal, and would keep it, and any work it still owes it, for
// good. The retry goes over a fresh connection to the address that handed
// out the EPR (any member of an HA cluster, where EPRs stay valid, as in
// reconnect), and asks for the destroy only if the instance is still
// unclaimed, so it cannot reach a live client's instance that reuses the
// name. Dials and the call together give up after closeRetryTimeout.
func (c *Client) destroyUnclaimed(epr string) {
	c.mu.Lock()
	addrs := c.addrs[c.eprIdx : c.eprIdx+1]
	if c.cluster != "" {
		addrs = c.addrs
	}
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), closeRetryTimeout)
	defer cancel()
	for _, addr := range addrs {
		cli, err := wsrpc.DialContext(ctx, addr, wsrpc.ClientOptions{
			Security: c.opts.Security,
			PSK:      c.opts.PSK,
			Faults:   c.opts.Faults,
		})
		if err != nil {
			continue
		}
		err = cli.CallContext(ctx, fproto.MethodDestroyInstance,
			fproto.DestroyInstanceRequest{EPR: epr, Unclaimed: true}, nil)
		cli.Close()
		if err == nil {
			return
		}
	}
}

// Close destroys the instance and disconnects.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cli, epr := c.cli, c.epr
	c.mu.Unlock()
	close(c.closedCh)
	c.cond.Broadcast()
	if c.pollStop != nil {
		close(c.pollStop)
	}
	derr := cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: epr}, nil)
	var remote *wsrpc.RemoteError
	if derr != nil && c.opts.Reconnect && !errors.As(derr, &remote) {
		c.destroyUnclaimed(epr)
	}
	err := cli.Close()
	if c.pollDone != nil {
		<-c.pollDone
	}
	return err
}
