package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"falkon/internal/faultinj"
)

// proc is one supervised child process: its binary, its fixed arguments and,
// under fault injection, the injector spec of each incarnation.
type proc struct {
	name   string
	addr   string                          // listen address; "" for an executor
	args   []string                        // argv without -faults, binary first
	faults func(restart int) faultinj.Spec // nil: no injected faults
}

// argv is the command line of the proc's restart'th incarnation. Each
// restart gets a fresh derived seed, so a fault that fires on the first
// operation cannot recur forever.
func (p proc) argv(restart int) []string {
	argv := append([]string(nil), p.args...)
	if p.faults != nil {
		argv = append(argv, "-faults", p.faults(restart).String())
	}
	return argv
}

// group is one kill target: a single journaled dispatcher, or an HA cluster
// whose nodes share a lease file and an address chain.
type group struct {
	name  string
	lease string // lease file; "" for a single-node group
	chain string // node addresses, as executors and clients dial them
	nodes []proc

	sups []*super // the running nodes, index-aligned with nodes
}

// kill is one scheduled SIGKILL of a group's leader.
type kill struct {
	group int
	at    time.Duration // single-node group: offset from the start of the run
	done  int64         // HA group: completions to wait for before the kill
}

// plan is one run's process layout, derived from the cfg alone: nothing in
// it depends on what happens once processes start.
type plan struct {
	groups []*group
	tiers  [][]proc // forwarder tiers, bottom-up; the last holds only the root
	execs  []proc
	kills  []kill
	entry  string // the client's address chain: the root, or group 0
	rows   int    // forwarder→child edges: the LeafStats rows of a healed tree
}

// newPlan lays out c's topology. alloc hands out one listen address per
// named dispatcher or forwarder.
func newPlan(c cfg, alloc func(name string) (string, error)) (*plan, error) {
	p := &plan{}
	for g := 0; g < max(1, c.tree); g++ {
		grp := &group{name: "dispatcher"}
		if c.tree > 0 {
			grp.name = fmt.Sprintf("leaf-%d", g)
		}
		if c.standbys > 0 {
			grp.name, grp.lease = "ha", filepath.Join(c.workDir, "lease")
		}
		var addrs []string
		for n := 0; n <= c.standbys; n++ {
			// Node names, journal dirs and seed salts are those each
			// topology has always used, so recorded seeds replay.
			name, journal, salt := grp.name, "journal-"+grp.name, 1000+500*uint64(g)
			switch {
			case grp.lease != "":
				name = fmt.Sprintf("node-%d", n)
				journal, salt = name, 4000+500*uint64(n)
			case c.tree == 0:
				journal = "journal"
			}
			addr, err := alloc(name)
			if err != nil {
				return nil, err
			}
			args := []string{filepath.Join(c.binDir, "falkon-dispatcher"),
				"-addr", addr, "-journal-dir", filepath.Join(c.workDir, journal),
				"-journal-sync", "group", "-snapshot-every", "200",
				"-replay-timeout", "500ms", "-max-retries", "50",
				"-shards", fmt.Sprint(c.shards), "-stats-every", "0"}
			if grp.lease != "" {
				// A SIGKILLed leader restarts in the same mode and rejoins
				// as a standby; a node that loses its lease exits 4 and
				// restarts the same way.
				args = append(args, "-lease-file", grp.lease, "-lease-ttl", "750ms", "-node-id", name, "-replicate", "quorum")
			}
			addrs = append(addrs, addr)
			grp.nodes = append(grp.nodes, proc{
				name: name, addr: addr, args: args,
				faults: func(restart int) faultinj.Spec { return dispatcherSpec(c.seed, salt+uint64(restart)) },
			})
		}
		grp.chain = strings.Join(addrs, ",")
		p.groups = append(p.groups, grp)
	}

	// Forwarder tiers (with -tree): each mid tier halves the fan-in by
	// striping the tier below, and the root takes what is left. Forwarders
	// are never kill targets, but every redistribution and dedup happens
	// once per tier. A small bundle keeps several bundles in flight even on
	// the quick workload, so a kill usually lands while the dead leaf still
	// owes work.
	children := make([]string, len(p.groups))
	for i, g := range p.groups {
		children[i] = g.chain
	}
	for level := 0; c.tree > 0 && level < c.treeDepth-1; level++ {
		top := level == c.treeDepth-2
		n := (len(children) + 1) / 2
		if top {
			n = 1
		}
		tier, addrs := make([]proc, n), make([]string, n)
		for j := range tier {
			name := fmt.Sprintf("mid-%d-%d", level, j)
			if top {
				name = "root"
			}
			var kids []string
			for k := j; k < len(children); k += n {
				kids = append(kids, children[k])
			}
			var err error
			if addrs[j], err = alloc(name); err != nil {
				return nil, err
			}
			tier[j] = proc{name: name, addr: addrs[j], args: []string{filepath.Join(c.binDir, "falkon-forwarder"),
				"-addr", addrs[j], "-dispatchers", strings.Join(kids, ","), "-bundle", "8"}}
		}
		p.rows += len(children)
		p.tiers = append(p.tiers, tier)
		children = addrs
	}
	p.entry = children[0]

	// Executors striped over the groups, reconnecting so each one rides out
	// its own group's restarts and failovers.
	for i := 0; i < c.execs; i++ {
		p.execs = append(p.execs, proc{
			name: fmt.Sprintf("executor-%d", i),
			args: []string{filepath.Join(c.binDir, "falkon-executor"),
				"-dispatcher", p.groups[i%len(p.groups)].chain, "-name", fmt.Sprintf("chaos-ex%d", i),
				"-slots", fmt.Sprint(c.slots), "-reconnect", "-reconnect-timeout", "60s"},
			faults: func(restart int) faultinj.Spec { return executorSpec(c.seed, i, restart) },
		})
	}

	for k, at := range killSchedule(c) {
		p.kills = append(p.kills, kill{group: k % len(p.groups), at: at, done: int64((k + 1) * c.tasks / (c.kills + 2))})
	}
	return p, nil
}

// dispatcherSpec derives a dispatcher's injector spec from its seed salt:
// the flat dispatcher's is 1000+restart, leaf i's 1000+500i+restart and HA
// node i's 4000+500i+restart.
func dispatcherSpec(seed, salt uint64) faultinj.Spec {
	return faultinj.Spec{
		Seed:       faultinj.DeriveSeed(seed, salt),
		LatencyP:   0.01,
		Latency:    2 * time.Millisecond,
		DupNotifyP: 0.05,
		FsyncErrP:  0.002,
		TornWriteP: 0.001,
		ENOSPCP:    0.001,
		SlowDiskP:  0.01,
		SlowDisk:   2 * time.Millisecond,
	}
}

// executorSpec derives executor i's injector spec for its restart'th
// incarnation.
func executorSpec(seed uint64, i, restart int) faultinj.Spec {
	return faultinj.Spec{
		Seed:       faultinj.DeriveSeed(seed, 2000+100*uint64(i)+uint64(restart)),
		LatencyP:   0.02,
		Latency:    time.Millisecond,
		DropP:      0.002,
		MidFrameP:  0.001,
		CrashP:     0.01,
		StallP:     0.005,
		Stall:      time.Second, // > dispatcher replay timeout: provokes replays
		ResultDieP: 0.005,
	}
}

// clientSpec derives the in-process client's transport faults.
func clientSpec(seed uint64) faultinj.Spec {
	return faultinj.Spec{
		Seed:        faultinj.DeriveSeed(seed, 3000),
		LatencyP:    0.02,
		Latency:     time.Millisecond,
		DropP:       0.002,
		ShortWriteP: 0.001,
	}
}

// killSchedule derives the wall-clock kill times: kills spread across the
// expected workload window, jittered deterministically by the seed.
func killSchedule(c cfg) []time.Duration {
	window := 10 * time.Second
	if c.tasks < 100 {
		window = 5 * time.Second
	}
	out := make([]time.Duration, c.kills)
	for i := range out {
		frac := (float64(i) + 0.3 + 0.6*faultinj.Uniform(c.seed, 50, uint64(i))) / float64(c.kills+1)
		out[i] = time.Duration(frac * float64(window))
	}
	return out
}
