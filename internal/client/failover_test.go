package client_test

import (
	"net"
	"testing"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// TestSplitAddrs pins the dispatcher-chain syntax shared by the client and
// executor attach paths.
func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ,", []string{"a:1", "b:2"}},
		{"", nil},
		{",,", nil},
	}
	for _, c := range cases {
		got := fproto.SplitAddrs(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("SplitAddrs(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SplitAddrs(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestClientFailsOverToFallbackDispatcher attaches a client to a leaf with a
// root-fallback chain, kills the leaf, and expects the client to re-home on
// the fallback — resubmitting owed work under a fresh instance, since EPRs
// don't travel between dispatchers — and to keep delivering exactly once.
func TestClientFailsOverToFallbackDispatcher(t *testing.T) {
	fast := backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}
	leaf := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	root := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := root.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	// One executor chained the same way: when the leaf dies it follows the
	// client to the fallback.
	ex, err := executor.Start(executor.Options{
		ID: "fo-exec", DispatcherAddr: leaf.Addr() + "," + root.Addr(),
		SleepScale: 0.001, Reconnect: true, Backoff: fast,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{
		DispatcherAddr: leaf.Addr() + "," + root.Addr(),
		BundleSize:     10, Reconnect: true, Backoff: fast,
	})
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

	// Owed work in flight, then the leaf crashes for good (no restart).
	if err := c.Submit(task.Batch(&gen, 30, 2*time.Second)); err != nil { // 2ms real
		t.Fatal(err)
	}
	leaf.Abort()

	rs, err := c.WaitN(30, 30*time.Second)
	if err != nil {
		t.Fatalf("tasks lost across failover: %v", err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want ≥1", c.Reconnects())
	}

	// The fallback is now home: fresh work flows without the leaf.
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stats(); err != nil || st.Completed == 0 {
		t.Fatalf("fallback dispatcher stats = %+v, err %v", st, err)
	}
}

// A client closed while its dispatcher restarts must still destroy its
// instance: the restarted dispatcher recovered it from the journal and
// would otherwise keep it, and any work it still owes it, for good.
func TestCloseMidOutageDestroysRecoveredInstance(t *testing.T) {
	dir := t.TempDir()
	d1 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	// A redial delay far past the test keeps the supervisor from
	// reconnecting first, so Close meets the dead connection.
	c, err := client.Connect(client.Options{DispatcherAddr: addr, Reconnect: true,
		Backoff: backoff.Policy{Base: time.Hour, Max: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	d1.Abort()
	d2 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if n := d2.Stats().Instances; n != 1 {
		t.Fatalf("restarted dispatcher recovered %d instances, want 1", n)
	}
	c.Close()
	if n := d2.Stats().Instances; n != 0 {
		t.Fatalf("closed client left %d instances on the restarted dispatcher", n)
	}
}

// The destroy Close retries after an outage must never reach another
// client's instance. EPR names repeat across dispatchers: a standalone
// fallback in the chain, or a journal-less dispatcher restarted on the same
// address, hands out "falkon-instance-1" afresh.
func TestCloseMidOutageSparesReusedEPR(t *testing.T) {
	hour := backoff.Policy{Base: time.Hour, Max: time.Hour}
	t.Run("fallback", func(t *testing.T) {
		d1 := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d1.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		d2 := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d2.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		other, err := client.Connect(client.Options{DispatcherAddr: d2.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		c, err := client.Connect(client.Options{DispatcherAddr: d1.Addr() + "," + d2.Addr(),
			Reconnect: true, Backoff: hour})
		if err != nil {
			t.Fatal(err)
		}
		if c.EPR() != other.EPR() {
			t.Fatalf("EPRs %q and %q differ; the test needs a collision", c.EPR(), other.EPR())
		}
		d1.Abort()
		c.Close()
		if n := d2.Stats().Instances; n != 1 {
			t.Fatalf("fallback dispatcher has %d instances after the other client's Close, want 1", n)
		}
	})
	t.Run("restart", func(t *testing.T) {
		d1 := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d1.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := d1.Addr()
		c, err := client.Connect(client.Options{DispatcherAddr: addr, Reconnect: true, Backoff: hour})
		if err != nil {
			t.Fatal(err)
		}
		d1.Abort()
		d2 := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d2.Listen(addr); err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		other, err := client.Connect(client.Options{DispatcherAddr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if c.EPR() != other.EPR() {
			t.Fatalf("EPRs %q and %q differ; the test needs a collision", c.EPR(), other.EPR())
		}
		c.Close()
		if n := d2.Stats().Instances; n != 1 {
			t.Fatalf("restarted dispatcher has %d instances after the old client's Close, want 1", n)
		}
	})
}

// Close's retried destroy is bounded: a peer that accepts the connection
// but never answers holds Close for closeRetryTimeout at most.
func TestCloseMidOutageBoundedByStalledPeer(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()
	c, err := client.Connect(client.Options{DispatcherAddr: addr, Reconnect: true,
		Backoff: backoff.Policy{Base: time.Hour, Max: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	d.Abort()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, read nothing, answer nothing
		}
	}()
	start := time.Now()
	c.Close()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Close took %v against a stalled peer", el)
	}
}
