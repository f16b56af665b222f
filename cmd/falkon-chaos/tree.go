package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"falkon/internal/client"
	"falkon/internal/faultinj"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// runTreeOne executes one chaos run against a live dispatch tree:
// a falkon-forwarder root, c.tree journaled leaf dispatchers, and
// executors striped across the leaves. With -tree-depth ≥ 3 the root
// forwards to intermediate forwarder layers (forwarder-of-forwarders)
// instead of reaching the leaves directly, each layer halving the fan-in.
// Unlike the flat run, the scheduled SIGKILLs target the LEAVES
// (rotating), which exercises the tree's whole failure story at once: the
// tier above redistributes the dead leaf's owed work to live siblings,
// the restarted leaf replays its journal and re-runs whatever it already
// owned, and each forwarder drops the results it no longer owes — so
// the client must still see exactly-once delivery no matter how many
// levels the results bubble up through.
func runTreeOne(c cfg, keep bool) (err error) {
	c.workDir, err = os.MkdirTemp("", fmt.Sprintf("falkon-chaos-tree-%d-", c.seed))
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

	leafAddrs := make([]string, c.tree)
	for i := range leafAddrs {
		if leafAddrs[i], err = freeAddr(); err != nil {
			return err
		}
	}
	rootAddr, err := freeAddr()
	if err != nil {
		return err
	}

	killAts := killSchedule(c)
	targets := make([]string, len(killAts))
	for i, at := range killAts {
		targets[i] = fmt.Sprintf("leaf-%d@%v", i%c.tree, at)
	}
	log.Printf("seed %d tree schedule: depth=%d root=%s leaves=%v kills=%v", c.seed, c.treeDepth, rootAddr, leafAddrs, targets)

	// Leaves: journaled dispatchers under supervision, each with its own
	// derived fault spec — the same disk/latency fault family the flat run
	// injects, seeded per leaf.
	leaves := make([]*super, c.tree)
	for i := range leaves {
		i := i
		journal := filepath.Join(c.workDir, fmt.Sprintf("journal-leaf-%d", i))
		leaves[i] = newSuper(fmt.Sprintf("leaf-%d", i), c, func(restart int) *exec.Cmd {
			return exec.Command(filepath.Join(c.binDir, "falkon-dispatcher"),
				"-addr", leafAddrs[i],
				"-journal-dir", journal,
				"-journal-sync", "group",
				"-snapshot-every", "200",
				"-replay-timeout", "500ms",
				"-max-retries", "50",
				"-shards", fmt.Sprint(c.shards),
				"-stats-every", "0",
				"-faults", leafSpec(c.seed, i, restart).String(),
			)
		})
		defer leaves[i].stop()
	}
	for i, a := range leafAddrs {
		if err := waitListening(a, 10*time.Second); err != nil {
			return fmt.Errorf("leaf %d never listened: %w", i, err)
		}
	}

	// Intermediate forwarder layers (depth ≥ 3): each layer halves the
	// fan-in, striping the layer below across its forwarders. Mids are
	// never kill targets — leaf death is the failure under test — but every
	// redistribution and dedup now happens once per level. treeRows counts
	// every forwarder→child edge in the topology: the flattened LeafStats
	// rows the root reports once the whole tree is connected and healthy.
	treeRows := 0
	childAddrs := leafAddrs
	for level := 0; level < c.treeDepth-2; level++ {
		treeRows += len(childAddrs)
		nMid := (len(childAddrs) + 1) / 2
		midAddrs := make([]string, nMid)
		for j := range midAddrs {
			if midAddrs[j], err = freeAddr(); err != nil {
				return err
			}
		}
		for j := 0; j < nMid; j++ {
			j := j
			var kids []string
			for k := j; k < len(childAddrs); k += nMid {
				kids = append(kids, childAddrs[k])
			}
			name := fmt.Sprintf("mid-%d-%d", level, j)
			mid := newSuper(name, c, func(int) *exec.Cmd {
				return exec.Command(filepath.Join(c.binDir, "falkon-forwarder"),
					"-addr", midAddrs[j],
					"-dispatchers", strings.Join(kids, ","),
					"-bundle", "8",
				)
			})
			defer mid.stop()
		}
		for j, a := range midAddrs {
			if err := waitListening(a, 10*time.Second); err != nil {
				return fmt.Errorf("mid-%d-%d never listened: %w", level, j, err)
			}
		}
		childAddrs = midAddrs
	}
	treeRows += len(childAddrs)

	// The root. Never a kill target — the harness exercises leaf death; the
	// supervisor only matters if the root exits on its own. A small bundle
	// keeps several bundles in flight even on the quick workload, so a kill
	// usually lands while the dead leaf still owes work.
	root := newSuper("root", c, func(int) *exec.Cmd {
		return exec.Command(filepath.Join(c.binDir, "falkon-forwarder"),
			"-addr", rootAddr,
			"-dispatchers", strings.Join(childAddrs, ","),
			"-bundle", "8",
		)
	})
	defer root.stop()
	if err := waitListening(rootAddr, 10*time.Second); err != nil {
		return fmt.Errorf("root never listened: %w", err)
	}

	// Executors striped across the leaves, reconnecting so each one rides
	// out its own leaf's restarts.
	sups := make([]*super, c.execs)
	for i := 0; i < c.execs; i++ {
		i := i
		sups[i] = newSuper(fmt.Sprintf("executor-%d", i), c, func(restart int) *exec.Cmd {
			return exec.Command(filepath.Join(c.binDir, "falkon-executor"),
				"-dispatcher", leafAddrs[i%c.tree],
				"-name", fmt.Sprintf("chaos-ex%d", i),
				"-slots", fmt.Sprint(c.slots),
				"-reconnect",
				"-reconnect-timeout", "60s",
				"-faults", executorSpec(c.seed, i, restart).String(),
			)
		})
		defer sups[i].stop()
	}

	// Scheduled leaf SIGKILLs, rotating across the leaves.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		start := time.Now()
		for i, at := range killAts {
			d := time.Until(start.Add(at))
			if d > 0 {
				select {
				case <-time.After(d):
				case <-root.stopped:
					return
				}
			}
			log.Printf("seed %d: SIGKILL leaf-%d (scheduled %v)", c.seed, i%c.tree, at)
			leaves[i%c.tree].kill()
		}
	}()

	// The reconnecting client talks only to the root — it cannot tell the
	// tree from a flat dispatcher.
	creg := obs.NewRegistry()
	cinj := faultinj.New(clientSpec(c.seed), creg, nil)
	var cl *client.Client
	for attempt := 0; ; attempt++ {
		cl, err = client.Connect(client.Options{
			DispatcherAddr:   rootAddr,
			Name:             "falkon-chaos-tree",
			BundleSize:       20,
			Reconnect:        true,
			ReconnectTimeout: 60 * time.Second,
			Faults:           cinj,
		})
		if err == nil {
			break
		}
		if attempt > 100 {
			return fmt.Errorf("client connect: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer cl.Close()

	var gen task.IDGen
	ts := make([]task.Task, c.tasks)
	for i := range ts {
		ts[i] = task.Task{
			ID:       gen.Next(),
			Engine:   task.EngineSleep,
			Duration: time.Duration(faultinj.Uniform(c.seed, 99, uint64(i)) * float64(c.maxSleep)),
		}
	}
	if err := cl.Submit(ts); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	results, err := cl.WaitN(len(ts), c.waitFor)
	if err != nil {
		return fmt.Errorf("await results: %w", err)
	}
	<-killDone

	if err := verifyExactlyOnce(c.seed, ts, results); err != nil {
		return err
	}

	// Invariant 3: the tree drained AND healed. The stats RPC rides the
	// root, which aggregates queued/outstanding across its live children
	// only — a dead child drops out of the sample — so "drained" must also
	// require every node back up, or the check would pass while a
	// restarted leaf is still replaying journaled work (which must execute
	// and be dropped as dups on the way up before the tree truly reads
	// empty). Forwarders flatten their children's LeafStats rows upward, so
	// the root's row set covers every forwarder→child edge in the topology
	// — a dead leaf under a live mid still shows up (and a dead mid hides
	// its subtree's rows, shrinking the set below treeRows).
	if err := awaitTreeHealed(cl, treeRows, 30*time.Second); err != nil {
		return err
	}
	if st, err := cl.Stats(); err == nil && st.Depth != c.treeDepth {
		return fmt.Errorf("root reports tree depth %d, want %d", st.Depth, c.treeDepth)
	}

	// Invariant 4: clean recovery after one more leaf death. Kill leaf 0
	// cold; the restarted leaf replays its journal, the tree drains again,
	// and the root's merged metrics account for the whole workload.
	log.Printf("seed %d: final SIGKILL leaf-0 + recovery check", c.seed)
	leaves[0].kill()
	if err := awaitTreeHealed(cl, treeRows, 30*time.Second); err != nil {
		return fmt.Errorf("after final leaf restart: %w", err)
	}
	ms, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("metrics after recovery: %w", err)
	}
	comp := ms.Counters["falkon_tasks_completed_total"]
	if comp < int64(len(ts)) {
		return fmt.Errorf("merged metrics inconsistent: completed=%d < submitted workload %d", comp, len(ts))
	}

	restarts := make([]string, c.tree)
	for i, l := range leaves {
		restarts[i] = fmt.Sprint(l.restarts())
	}
	log.Printf("seed %d PASS (tree %d leaves, depth %d): %d results, client reconnects=%d resubmit-deduped=%d dup-results-dropped=%d, client faults: %s, leaf restarts=%v",
		c.seed, c.tree, c.treeDepth, len(results), cl.Reconnects(), cl.Deduped(), cl.DuplicatesDropped(), cinj.Summary(), restarts)
	printFaultCounters("client", creg.Snapshot().Counters)
	printFaultCounters("tree", ms.Counters)
	return nil
}

// awaitTreeHealed polls the root's aggregated stats until every node in the
// tree (the root's flattened row set covers every forwarder→child edge) is
// up again and nothing is queued or outstanding anywhere in the tree.
func awaitTreeHealed(cl *client.Client, wantRows int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Stats()
		if err == nil && st.Queued == 0 && st.Outstanding == 0 {
			up := 0
			for _, l := range st.Leaves {
				if l.Up {
					up++
				}
			}
			if up == wantRows {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("tree stats unavailable: %w", err)
			}
			up := 0
			for _, l := range st.Leaves {
				if l.Up {
					up++
				}
			}
			return fmt.Errorf("tree not healed: queued=%d outstanding=%d nodes up %d/%d", st.Queued, st.Outstanding, up, wantRows)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// leafSpec derives leaf i's injector spec for its restart'th incarnation —
// the dispatcher fault family, seeded per leaf.
func leafSpec(seed uint64, leaf, restart int) faultinj.Spec {
	s := dispatcherSpec(seed, restart)
	s.Seed = faultinj.DeriveSeed(seed, 1000+500*uint64(leaf)+uint64(restart))
	return s
}
