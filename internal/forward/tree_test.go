package forward_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// fastBackoff keeps restart tests snappy.
var fastBackoff = backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}

// TestForwarderSurvivesLeafRestart is the resilience regression for the
// pass-through era, where a restarted downstream dispatcher killed (or
// wedged) the forwarder for good: the root must redial the leaf with
// backoff, re-establish its parent attachment and downstream instances, and
// replay whatever the dead leaf still owed — all without the upstream
// client noticing more than latency.
func TestForwarderSurvivesLeafRestart(t *testing.T) {
	d1 := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	ex, err := executor.Start(executor.Options{
		ID: "restart-exec", DispatcherAddr: addr, SleepScale: 0.001,
		Reconnect: true, Backoff: fastBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	f, err := forward.New(forward.Options{Dispatchers: []string{addr}, Bundle: 10, Backoff: fastBackoff, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(20, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Slow-ish tasks so some are still owed when the leaf dies.
	if err := c.Submit(task.Batch(&gen, 30, 2*time.Second)); err != nil { // 2ms real each
		t.Fatal(err)
	}
	d1.Abort() // crash: no drain, no journal — outstanding work evaporates

	// Restart a fresh dispatcher on the same address (bind may race the
	// dying listener briefly).
	d2 := dispatch.New(dispatch.Options{Logf: t.Logf})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := d2.Listen(addr); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { d2.Close() })

	rs, err := c.WaitN(30, 60*time.Second)
	if err != nil {
		t.Fatalf("tasks lost across leaf restart: %v", err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	st := f.Stats()
	if len(st.Leaves) != 1 || st.Leaves[0].Reconnects < 1 {
		t.Fatalf("leaf stats = %+v, want ≥1 reconnect", st.Leaves)
	}

	// The forwarder is not wedged: fresh work still flows.
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestForwarderLeafDeathExactlyOnce kills one of two leaves mid-workload
// and requires N submitted ⇒ N unique results: the dead leaf's pending
// tasks replay through the root onto the survivor, and any replay racing an
// already-delivered original drops in the root's dedupe.
func TestForwarderLeafDeathExactlyOnce(t *testing.T) {
	var addrs []string
	var ds []*dispatch.Dispatcher
	for i := 0; i < 2; i++ {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		ex, err := executor.Start(executor.Options{
			ID: fmt.Sprintf("eo-exec-%d", i), DispatcherAddr: d.Addr(), SleepScale: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
		addrs = append(addrs, d.Addr())
		ds = append(ds, d)
	}
	f, err := forward.New(forward.Options{Dispatchers: addrs, Bundle: 8, Backoff: fastBackoff, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 200
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, time.Second)); err != nil { // 1ms real each
		t.Fatal(err)
	}
	ds[0].Abort() // leaf 0 crashes with queued + in-flight work

	rs, err := c.WaitN(n, 60*time.Second)
	if err != nil {
		t.Fatalf("lost tasks after leaf death: %v (got %d)", err, len(rs))
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("task %v failed: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("unique results = %d, want %d", len(seen), n)
	}
}

// TestForwarderRoutesByCapacity pins the headline routing behavior: with
// the capacity protocol live, a leaf with no executors is never fed, where
// round-robin would have parked half the workload on it.
func TestForwarderRoutesByCapacity(t *testing.T) {
	empty := dispatch.New(dispatch.Options{Logf: t.Logf}) // no executors
	if err := empty.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { empty.Close() })
	busy := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := busy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { busy.Close() })
	for i := 0; i < 4; i++ {
		ex, err := executor.Start(executor.Options{
			ID: fmt.Sprintf("cap-exec-%d", i), DispatcherAddr: busy.Addr(), SleepScale: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
	}
	f, err := forward.New(forward.Options{Dispatchers: []string{empty.Addr(), busy.Addr()}, Bundle: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(100, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := empty.Stats(); st.Submitted != 0 {
		t.Fatalf("executor-less leaf received %d tasks", st.Submitted)
	}
	if st := busy.Stats(); st.Completed != 100 {
		t.Fatalf("busy leaf completed %d, want 100", st.Completed)
	}
}

// TestForwarderDepth3SkipsExecutorlessSubtree is the depth-3 twin of
// TestForwarderRoutesByCapacity: a root over two mid forwarders, mid A over
// a dispatcher with no executors and mid B over one with four. Each mid
// reports the summed capacity of its children, so the root sees subtree A
// as executor-less and feeds it nothing; a root that could not read mid
// capacity would strand part of the workload there for good.
func TestForwarderDepth3SkipsExecutorlessSubtree(t *testing.T) {
	startDispatcher := func(execs int) *dispatch.Dispatcher {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		for i := 0; i < execs; i++ {
			ex, err := executor.Start(executor.Options{
				ID: fmt.Sprintf("d3-exec-%d", i), DispatcherAddr: d.Addr(), SleepScale: 0.001,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ex.Stop)
		}
		return d
	}
	startForwarder := func(addrs ...string) *forward.Forwarder {
		f, err := forward.New(forward.Options{Dispatchers: addrs, Bundle: 10, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	empty, busy := startDispatcher(0), startDispatcher(4)
	midA, midB := startForwarder(empty.Addr()), startForwarder(busy.Addr())
	root := startForwarder(midA.Addr(), midB.Addr())

	c, err := client.Connect(client.Options{DispatcherAddr: root.Addr(), BundleSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(100, 15*time.Second); err != nil {
		t.Fatalf("%v (executor-less leaf holds %d tasks)", err, empty.Stats().Submitted)
	}
	if st := empty.Stats(); st.Submitted != 0 {
		t.Fatalf("executor-less subtree received %d tasks", st.Submitted)
	}

	// The root itself answers attach-parent with the sum over its subtree.
	probe, err := wsrpc.Dial(root.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	var h fproto.CapacityHint
	if err := probe.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: "probe"}, &h); err != nil {
		t.Fatalf("root attach-parent: %v", err)
	}
	if h.Executors != 4 || h.Epoch == 0 || h.Seq == 0 {
		t.Fatalf("root capacity = %+v, want Executors=4 with epoch and seq set", h)
	}
}

// TestForwarderPushesSummedCapacity follows one capacity change up two
// tiers with no task traffic to piggyback on: executors registering at a
// leaf dispatcher reach the mid forwarder as a push, the mid re-pushes its
// sum to the root, and the root re-pushes its own sum to an attached parent.
func TestForwarderPushesSummedCapacity(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	mid, err := forward.New(forward.Options{Dispatchers: []string{d.Addr()}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := mid.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mid.Close() })
	root, err := forward.New(forward.Options{Dispatchers: []string{mid.Addr()}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })

	pushed := make(chan fproto.CapacityHint, 64)
	parent, err := wsrpc.Dial(root.Addr(), wsrpc.ClientOptions{
		OnNotify: func(method string, body json.RawMessage) {
			var h fproto.CapacityHint
			if method == fproto.NotifyCapacity && json.Unmarshal(body, &h) == nil {
				select {
				case pushed <- h:
				default: // never block the read loop, even after the test returns
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	var h fproto.CapacityHint
	if err := parent.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: "probe"}, &h); err != nil {
		t.Fatal(err)
	}
	if h.Executors != 0 {
		t.Fatalf("attach snapshot = %+v, want no executors yet", h)
	}
	for i := 0; i < 2; i++ {
		ex, err := executor.Start(executor.Options{ID: fmt.Sprintf("push-exec-%d", i), DispatcherAddr: d.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case h := <-pushed:
			if h.Executors == 2 && h.IdleSlots == 2 {
				return
			}
		case <-deadline:
			t.Fatal("root never pushed the new executors upward")
		}
	}
}

// TestForwarderAttachCapacityPushRace pins a startup ordering bug: a leaf
// starts pushing capacity notifies the moment attach-parent lands, and a
// push can outrace the attach reply — the notify handler used to index the
// leaf table before New had populated it, panicking the root's read loop.
// The fake leaf notifies before replying; the client's in-order frame
// dispatch turns that into a deterministic reproduction.
func TestForwarderAttachCapacityPushRace(t *testing.T) {
	srv := wsrpc.NewServer(wsrpc.ServerOptions{Logf: t.Logf})
	srv.Register(fproto.MethodAttachParent, func(p *wsrpc.Peer, _ json.RawMessage) (any, error) {
		if err := p.Notify(fproto.NotifyCapacity, fproto.CapacityHint{IdleSlots: 3, Executors: 3, Seq: 9}); err != nil {
			return nil, err
		}
		return fproto.CapacityHint{Executors: 3, Seq: 1}, nil
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	f, err := forward.New(forward.Options{Dispatchers: []string{srv.Addr()}, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New must survive a capacity push racing the attach reply: %v", err)
	}
	f.Close()
}
