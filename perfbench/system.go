package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/replica"
	"falkon/internal/wal"
)

// system is one booted topology: dispatchers (the leaves, for a tree), an
// optional forwarder root, executors, an optional quorum standby, and one
// loader per tenant.
type system struct {
	w     *workload
	dir   string
	clk   clock
	disps []*dispatch.Dispatcher
	fwd   *forward.Forwarder
	execs []*executor.Executor
	sb    *replica.Standby
	// leafOf maps an executor ID to the index of the dispatcher it
	// registered with; offsets[i] moves dispatcher i's Result stamps onto
	// the bench clock.
	leafOf  map[string]int
	offsets []int64
	loaders []*loader
	open    *loader // the open-loop generator's loader
	closed  *loader // the closed-loop generator's loader
}

func (s *system) journalDir() string { return filepath.Join(s.dir, "journal") }
func (s *system) mirrorDir() string  { return filepath.Join(s.dir, "mirror") }

// boot brings up w's topology under dir and returns it with its set-up
// time: from the first constructor call until every executor has
// registered, the standby has attached, and each tenant's probe task has
// come back.
func boot(w *workload, dir string, clk clock, seed int64) (*system, time.Duration, error) {
	t0 := time.Now()
	s := &system{w: w, dir: dir, clk: clk, leafOf: make(map[string]int)}
	if err := s.start(seed); err != nil {
		s.shutdown()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func (s *system) start(seed int64) error {
	w := s.w
	for i := 0; i < w.leaves; i++ {
		opts := dispatch.Options{}
		if w.durable {
			opts.JournalDir = s.journalDir()
			opts.Replication = &dispatch.ReplicationOptions{Term: 1, Mode: replica.ModeQuorum}
		}
		if w.tree {
			opts.Tenants = []dispatch.TenantSpec{
				{Name: w.closedTenant, Weight: 1},
				{Name: w.openTenant, Weight: 4},
			}
			opts.FairShare = true
		}
		d := dispatch.New(opts)
		if err := d.Listen("127.0.0.1:0"); err != nil {
			d.Close()
			return fmt.Errorf("dispatcher %d: %w", i, err)
		}
		s.disps = append(s.disps, d)
		s.offsets = append(s.offsets, d.SpanHeader().EpochUnixNano-s.clk.origin.UnixNano())
	}
	if w.durable {
		addr := s.disps[0].Addr()
		sb, err := replica.StartStandby(replica.StandbyOptions{
			ID:     "standby-1",
			Leader: func() (string, error) { return addr, nil },
			Dir:    s.mirrorDir(),
		})
		if err != nil {
			return fmt.Errorf("standby: %w", err)
		}
		s.sb = sb
		if err := waitFor(10*time.Second, func() bool {
			rs := s.disps[0].Stats().Replication
			return rs != nil && len(rs.Standbys) == 1
		}); err != nil {
			return fmt.Errorf("standby never attached: %w", err)
		}
	}
	for i := 0; i < w.execs; i++ {
		id := fmt.Sprintf("x%02d", i)
		leaf := i % w.leaves
		ex, err := executor.Start(executor.Options{ID: id, DispatcherAddr: s.disps[leaf].Addr(), Slots: w.slots})
		if err != nil {
			return err
		}
		s.execs = append(s.execs, ex)
		s.leafOf[id] = leaf
	}
	addr := s.disps[0].Addr()
	if w.tree {
		addrs := make([]string, len(s.disps))
		for i, d := range s.disps {
			addrs[i] = d.Addr()
		}
		f, err := forward.New(forward.Options{Dispatchers: addrs})
		if err != nil {
			return err
		}
		s.fwd = f
		if err := f.Listen("127.0.0.1:0"); err != nil {
			return fmt.Errorf("forwarder: %w", err)
		}
		addr = f.Addr()
	}
	tenants := []string{w.openTenant}
	if w.closedTenant != w.openTenant {
		tenants = append(tenants, w.closedTenant)
	}
	for i, tenant := range tenants {
		cli, err := client.Connect(client.Options{
			DispatcherAddr: addr,
			Name:           "perfbench-" + tenant,
			Tenant:         tenant,
			BundleSize:     w.bundle,
		})
		if err != nil {
			return fmt.Errorf("client %q: %w", tenant, err)
		}
		l := newLoader(s, tenant, cli, w.bundle, seed+int64(i))
		s.loaders = append(s.loaders, l)
		if tenant == w.openTenant {
			s.open = l
		}
		if tenant == w.closedTenant {
			s.closed = l
		}
	}
	for _, l := range s.loaders {
		if err := l.submit(l.makeTasks(1, l.clk.now(), true)); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	for _, l := range s.loaders {
		if err := l.drain(10 * time.Second); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// verdict is the exactly-once and durability check of one booted system.
type verdict struct {
	attempted int64
	failed    int64 // missing, duplicated, failed or stray results, plus failed checks
	problems  []string
}

// finish runs after the last phase has drained. It runs the durability
// checks (durable workloads), stops the readers, tears the topology down,
// and counts every task that did not come back exactly once with exit
// code 0.
func (s *system) finish() verdict {
	var v verdict
	if s.w.durable {
		s.checkMirror(&v)
	}
	time.Sleep(20 * time.Millisecond) // let a late duplicate reach a reader
	for _, l := range s.loaders {
		close(l.stop)
		<-l.done
	}
	for _, l := range s.loaders {
		v.attempted += l.sent
		bad := l.failed()
		if bad > 0 {
			v.problems = append(v.problems, fmt.Sprintf("%s: %d of %d tasks not returned exactly once with exit 0 (%d failed, %d stray)",
				l.tenant, bad, l.sent, l.failures, l.stray))
		}
		v.failed += bad
	}
	s.shutdown()
	return v
}

// checkMirror waits for the standby to acknowledge the whole stream, stops
// it, and recovers its mirror journal, which must hold no pending task.
// Any quorum barrier that degraded, or any mismatch, fails every task of
// the run: the durability promise was not kept for them.
func (s *system) checkMirror(v *verdict) {
	d := s.disps[0]
	var end int64 = -1
	err := waitFor(10*time.Second, func() bool {
		rs := d.Stats().Replication
		if rs == nil || len(rs.Standbys) != 1 || rs.Standbys[0].Lag != 0 {
			return false
		}
		stable := rs.End == end
		end = rs.End
		if !stable {
			time.Sleep(20 * time.Millisecond)
		}
		return stable
	})
	var degraded int64
	if rs := d.Stats().Replication; rs != nil {
		degraded = rs.QuorumDegraded
	}
	s.sb.Stop()
	s.sb = nil
	if err == nil {
		var st *wal.State
		var j *wal.Journal
		st, j, _, err = wal.Recover(s.mirrorDir(), wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncOff}})
		if err == nil {
			err = j.Close()
			if n := len(st.Pending); n != 0 {
				err = errors.Join(err, fmt.Errorf("mirror recovered %d pending tasks", n))
			}
		}
	}
	if degraded != 0 {
		err = errors.Join(err, fmt.Errorf("%d quorum barriers degraded", degraded))
	}
	if err != nil {
		v.problems = append(v.problems, "durability check: "+err.Error())
		for _, l := range s.loaders {
			v.failed += l.sent
		}
	}
}

// shutdown stops whatever start brought up, clients first, and removes
// the system's directory.
func (s *system) shutdown() {
	for _, l := range s.loaders {
		select {
		case <-l.stop:
		default:
			close(l.stop)
			<-l.done
		}
		l.cli.Close()
	}
	if s.fwd != nil {
		s.fwd.Close()
	}
	for _, ex := range s.execs {
		ex.Stop()
	}
	if s.sb != nil {
		s.sb.Stop()
	}
	for _, d := range s.disps {
		d.Close()
	}
	os.RemoveAll(s.dir)
}
