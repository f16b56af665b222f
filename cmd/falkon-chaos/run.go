package main

import (
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"falkon/internal/client"
	"falkon/internal/faultinj"
	"falkon/internal/obs"
	"falkon/internal/replica"
	"falkon/internal/task"
)

// run executes one chaos run for c.seed over the topology c describes.
func run(c cfg, keep bool) (err error) {
	c.workDir, err = os.MkdirTemp("", fmt.Sprintf("falkon-chaos-%d-", c.seed))
	if err != nil {
		return err
	}
	defer func() {
		if err == nil && !keep {
			os.RemoveAll(c.workDir)
		} else {
			log.Printf("seed %d: work dir kept at %s", c.seed, c.workDir)
		}
	}()
	p, err := newPlan(c, freeAddr)
	if err != nil {
		return err
	}
	log.Printf("seed %d schedule: %d group(s) of %d, %d forwarder tier(s), entry=%s kills=%+v",
		c.seed, len(p.groups), 1+c.standbys, len(p.tiers), p.entry, p.kills)

	// Children stop in reverse start order, on every return path.
	var sups []*super
	defer func() {
		for i := len(sups) - 1; i >= 0; i-- {
			sups[i].stop()
		}
	}()
	start := func(procs []proc) ([]*super, error) {
		var out []*super
		for _, pr := range procs {
			s, err := newSuper(pr, c)
			if err != nil {
				return nil, err
			}
			sups, out = append(sups, s), append(out, s)
		}
		return out, nil
	}
	for _, g := range p.groups {
		if g.sups, err = start(g.nodes); err != nil {
			return err
		}
	}
	for _, g := range p.groups {
		if err := g.up(c.seed); err != nil {
			return err
		}
	}
	for _, tier := range p.tiers {
		if _, err := start(tier); err != nil {
			return err
		}
		for _, f := range tier {
			if err := waitListening(f.addr, 10*time.Second); err != nil {
				return fmt.Errorf("%s never listened: %w", f.name, err)
			}
		}
	}
	if _, err := start(p.execs); err != nil {
		return err
	}

	// The reconnecting client, in-process, with its own transport faults;
	// it cannot tell a tree or an HA chain from a flat dispatcher.
	cinj := faultinj.New(clientSpec(c.seed), obs.NewRegistry(), nil)
	var cl *client.Client
	if err := poll(10*time.Second, 100*time.Millisecond, func() (err error) {
		cl, err = client.Connect(client.Options{DispatcherAddr: p.entry, Name: "falkon-chaos", BundleSize: 20,
			Reconnect: true, ReconnectTimeout: 60 * time.Second, Faults: cinj})
		return err
	}); err != nil {
		return fmt.Errorf("client connect: %w", err)
	}
	defer cl.Close()
	quit := make(chan struct{})
	defer close(quit)
	killErr := make(chan error, 1)
	go func() { killErr <- p.killAll(c, cl, quit) }()

	// Workload: sleep tasks with seed-derived durations.
	var gen task.IDGen
	ts := make([]task.Task, c.tasks)
	for i := range ts {
		d := time.Duration(faultinj.Uniform(c.seed, 99, uint64(i)) * float64(20*time.Millisecond))
		ts[i] = task.Task{ID: gen.Next(), Engine: task.EngineSleep, Duration: d}
	}
	if err := cl.Submit(ts); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	results, err := cl.WaitN(len(ts), c.waitFor)
	if err != nil {
		return fmt.Errorf("await results: %w", err)
	}
	if err := <-killErr; err != nil {
		return err
	}
	if err := verifyExactlyOnce(c.seed, ts, results); err != nil {
		return err
	}
	g0 := p.groups[0]
	if g0.lease != "" { // every takeover bumps the term: 1+c.kills at least
		if final, err := (&replica.Lease{Path: g0.lease}).Read(); err != nil || final.Term < uint64(1+c.kills) {
			return fmt.Errorf("lease term %d (read err %v) after %d leader kills — failovers did not happen", final.Term, err, c.kills)
		}
	}
	if err := awaitHealed(cl, p.rows, 30*time.Second); err != nil {
		return err
	}
	if st, err := cl.Stats(); err == nil && c.tree > 0 && st.Depth != c.treeDepth {
		return fmt.Errorf("root reports tree depth %d, want %d", st.Depth, c.treeDepth)
	}

	// Clean recovery: kill group 0's leader once more, at rest. Its
	// successor replays the journal (a promoted standby its mirror) to a
	// clean, fully accounted state, and the system heals again.
	log.Printf("seed %d: final SIGKILL of %s's leader + recovery check", c.seed, g0.name)
	if err := g0.killLeader(c.seed, 30*time.Second); err != nil {
		return fmt.Errorf("final kill: %w", err)
	}
	if err := awaitHealed(cl, p.rows, 30*time.Second); err != nil {
		return fmt.Errorf("after final kill: %w", err)
	}
	ms, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("metrics after recovery: %w", err)
	}
	if comp := ms.Counters["falkon_tasks_completed_total"]; comp < int64(len(ts)) {
		return fmt.Errorf("merged metrics inconsistent: completed=%d < submitted workload %d", comp, len(ts))
	}
	if st, err := cl.Stats(); g0.lease != "" && (err != nil || st.Replication == nil || st.Replication.Role != "leader") {
		return fmt.Errorf("promoted dispatcher reports no leader replication stats: %+v (stats err %v)", st.Replication, err)
	}

	var restarts []string
	for _, g := range p.groups {
		for _, s := range g.sups {
			restarts = append(restarts, fmt.Sprintf("%s=%d", s.name, s.restart.Load()))
		}
	}
	log.Printf("seed %d PASS: %d results, client reconnects=%d resubmit-deduped=%d dup-results-dropped=%d, client faults: %s, dispatcher restarts=%v, dispatcher faults: %s",
		c.seed, len(results), cl.Reconnects(), cl.Deduped(), cl.DuplicatesDropped(), cinj.Summary(), restarts, faultCounts(ms.Counters))
	return nil
}

// killAll runs the plan's kill schedule. A single-node group dies on the
// seeded wall clock; an HA group's leader once the workload has made another
// slice of progress, so every failover lands mid-workload however fast the
// executors drain it.
func (p *plan) killAll(c cfg, cl *client.Client, quit <-chan struct{}) error {
	start := time.Now()
	deadline := start.Add(c.waitFor)
	for i, k := range p.kills {
		g := p.groups[k.group]
		if g.lease == "" {
			select {
			case <-time.After(time.Until(start.Add(k.at))):
			case <-quit:
				return nil
			}
			log.Printf("seed %d: SIGKILL %s (scheduled %v)", c.seed, g.name, k.at)
		} else if err := poll(time.Until(deadline), 50*time.Millisecond, func() error {
			// The completed counter is replayed across failovers, so it
			// is monotonic; stats errors during a failover are retried.
			st, err := cl.Stats()
			if err == nil && st.Completed < k.done {
				err = fmt.Errorf("stalled at %d/%d completions", st.Completed, k.done)
			}
			return err
		}); err != nil {
			return fmt.Errorf("kill %d: %w", i, err)
		}
		if err := g.killLeader(c.seed, time.Until(deadline)); err != nil {
			return fmt.Errorf("kill %d: %w", i, err)
		}
	}
	return nil
}

// up waits until the group serves: its node listens, or an HA group has
// elected a leader and that leader listens.
func (g *group) up(seed uint64) error {
	addr := g.nodes[0].addr
	if g.lease != "" {
		st, err := waitLeader(g.lease, 0, 15*time.Second)
		if err != nil {
			return err
		}
		log.Printf("seed %d: %s leads at term %d", seed, st.Holder, st.Term)
		addr = st.Addr
	}
	if err := waitListening(addr, 10*time.Second); err != nil {
		return fmt.Errorf("%s never listened: %w", g.name, err)
	}
	return nil
}

// killLeader SIGKILLs the group's leader; its supervisor restarts it. In an
// HA group the leader is the lease holder, and a successor must win a
// strictly newer term within timeout.
func (g *group) killLeader(seed uint64, timeout time.Duration) error {
	if g.lease == "" {
		g.sups[0].kill()
		return nil
	}
	st, err := waitLeader(g.lease, 0, timeout)
	if err != nil {
		return err
	}
	v := slices.IndexFunc(g.nodes, func(n proc) bool { return n.name == st.Holder })
	if v < 0 {
		return fmt.Errorf("lease names unknown holder %q", st.Holder)
	}
	log.Printf("seed %d: SIGKILL leader %s (term %d)", seed, st.Holder, st.Term)
	g.sups[v].kill()
	next, err := waitLeader(g.lease, st.Term, timeout)
	if err != nil {
		return fmt.Errorf("no successor after killing %s: %w", st.Holder, err)
	}
	log.Printf("seed %d: failover: %s leads at term %d", seed, next.Holder, next.Term)
	return nil
}

// waitLeader polls the lease file until a live holder with term > minTerm
// appears.
func waitLeader(path string, minTerm uint64, timeout time.Duration) (st replica.LeaseState, err error) {
	err = poll(timeout, 50*time.Millisecond, func() error {
		cur, err := (&replica.Lease{Path: path}).Read()
		if err == nil && cur.Holder != "" && !cur.Expired(time.Now()) && cur.Term > minTerm {
			st = cur
			return nil
		}
		return fmt.Errorf("no leader past term %d within %v (lease: %+v, read error: %v)", minTerm, timeout, cur, err)
	})
	return st, err
}

// awaitHealed polls the entry's stats until nothing is queued or
// outstanding and wantRows LeafStats rows are up (0 without forwarders). A
// root sums queued/outstanding over live children only, so without the row
// count the check would pass while a restarted leaf still replays journaled
// work. Forwarders flatten their children's rows upward: a healed root shows
// one row per forwarder→child edge, and a dead mid hides its subtree's.
func awaitHealed(cl *client.Client, wantRows int, timeout time.Duration) error {
	return poll(timeout, 200*time.Millisecond, func() error {
		st, err := cl.Stats()
		if err != nil {
			return fmt.Errorf("stats unavailable: %w", err)
		}
		up := 0
		for _, l := range st.Leaves {
			if l.Up {
				up++
			}
		}
		if st.Queued != 0 || st.Outstanding != 0 || up != wantRows {
			return fmt.Errorf("not healed: queued=%d outstanding=%d nodes up %d/%d", st.Queued, st.Outstanding, up, wantRows)
		}
		return nil
	})
}

// poll calls f every interval until it returns nil or timeout passes, and
// then returns f's last error.
func poll(timeout, every time.Duration, f func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := f()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(every)
	}
}

// verifyExactlyOnce checks a completed workload: N submitted tasks yield
// exactly N results with N distinct IDs, none lost, none delivered twice —
// and none failed, since sleep tasks cannot fail on their own, so any
// failure means the replay policy gave up on live work.
func verifyExactlyOnce(seed uint64, ts []task.Task, results []task.Result) error {
	owed := make(map[task.ID]bool, len(ts))
	for _, t := range ts {
		owed[t.ID] = true
	}
	failedResults := 0
	for _, r := range results {
		if !owed[r.ID] {
			return fmt.Errorf("task %v delivered twice or never submitted", r.ID)
		}
		delete(owed, r.ID)
		if r.Failed() {
			failedResults++
			log.Printf("seed %d: task %v failed: %s (exit %d)", seed, r.ID, r.Err, r.ExitCode)
		}
	}
	if len(owed) > 0 {
		return fmt.Errorf("submitted %d tasks, got %d results: %d lost", len(ts), len(results), len(owed))
	}
	if failedResults > 0 {
		return fmt.Errorf("%d tasks failed under injected faults", failedResults)
	}
	return nil
}

// faultCounts renders the falkon_fault_injected_total{fault=...} family of
// the last incarnations' merged metrics, in the exposition's own vocabulary
// so a report is greppable against dashboards; sorted for stable output.
func faultCounts(counters map[string]int64) string {
	var out []string
	for k, v := range counters {
		if strings.HasPrefix(k, "falkon_fault_injected_total{") && v > 0 {
			out = append(out, fmt.Sprintf("%s=%d", k, v))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
