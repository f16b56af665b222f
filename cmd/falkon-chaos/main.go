// Command falkon-chaos runs a real multi-process Falkon deployment under a
// seeded fault schedule, then asserts its end-to-end invariants. One driver
// serves every topology: max(1, -tree) dispatcher groups of 1+(-standbys)
// nodes (a larger group is an HA cluster sharing a lease and an address
// chain), -tree-depth−1 forwarder tiers over them when -tree > 0, and
// executors striped over the groups. -tree with -standbys is rejected:
// falkon-forwarder takes one address per child, so HA leaves under a tree
// need address chains there first.
//
// Kills rotate over the groups: a single-node group dies on a seeded wall
// clock, an HA group's leader each time the workload completes another slice.
// Every run then checks exactly-once delivery, that the system drained and
// healed, that HA lease terms rose once per kill, and clean recovery after
// one more kill of group 0's leader. The schedule is a pure function of the
// flags and -seed, so a failing run prints a REPRODUCE command that replays it:
//
//	falkon-chaos -seed 42
//	falkon-chaos -seed 1 -sweep 30        # acceptance sweep
//	falkon-chaos -seed 7 -quick           # CI smoke
//	falkon-chaos -tree 4 -tree-depth 3    # forwarder-of-forwarders
//	falkon-chaos -standbys 2              # chained leader failovers
//
// Children are the real binaries, built on first use and restarted by
// supervisors the way an operator's init system would.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"
)

// cfg carries one run's parameters, all derived from flags and the seed.
type cfg struct {
	seed      uint64
	tasks     int
	execs     int
	slots     int
	kills     int
	shards    int
	tree      int
	treeDepth int
	standbys  int
	quick     bool
	waitFor   time.Duration
	binDir    string
	workDir   string
	verbose   bool
}

// parseFlags turns the command line into one run's cfg plus the sweep
// length and whether to keep passing runs' work dirs.
func parseFlags(args []string) (c cfg, sweep int, keep bool, err error) {
	fs := flag.NewFlagSet("falkon-chaos", flag.ExitOnError)
	fs.Uint64Var(&c.seed, "seed", 1, "master seed driving the entire fault schedule")
	fs.IntVar(&sweep, "sweep", 1, "run this many consecutive seeds (all must pass)")
	fs.IntVar(&c.tasks, "tasks", 200, "tasks to submit per run")
	fs.IntVar(&c.execs, "execs", 3, "executor processes")
	fs.IntVar(&c.slots, "slots", 2, "slots per executor")
	fs.IntVar(&c.kills, "kills", 2, "scheduled SIGKILLs per run, rotating over the dispatcher groups")
	fs.BoolVar(&c.quick, "quick", false, "small fast run for CI smoke (overrides -tasks/-execs/-kills)")
	fs.BoolVar(&keep, "keep", false, "keep work directories (logs, journals) after a passing run")
	fs.BoolVar(&c.verbose, "v", false, "stream child process logs to stderr")
	fs.IntVar(&c.shards, "shards", 0, "dispatcher scheduling shards (passed through; 0 = one per CPU)")
	fs.IntVar(&c.tree, "tree", 0, "dispatch-tree leaves: N journaled leaf dispatchers under a forwarder root, SIGKILL leaves in turn (0 = no tree)")
	fs.IntVar(&c.treeDepth, "tree-depth", 2, "dispatch-tree levels with -tree: 2 = root over leaves, ≥3 adds forwarder-of-forwarders tiers between them")
	fs.IntVar(&c.standbys, "standbys", 0, "HA: 1 leader + N standby dispatchers sharing an election lease, SIGKILL whoever leads (0 = no HA)")
	fs.StringVar(&c.binDir, "bin", "", "directory holding the falkon binaries (empty = go build into the work area)")
	fs.DurationVar(&c.waitFor, "timeout", 2*time.Minute, "per-run workload completion timeout")
	fs.Parse(args) // exits on a malformed command line
	c.treeDepth = max(c.treeDepth, 2)
	if c.quick {
		c.tasks, c.execs, c.kills = 60, 2, 1
		c.waitFor = min(c.waitFor, time.Minute)
	}
	// The HA acceptance bar is a chain of consecutive failovers, not one:
	// give the full (non-quick) run at least three leader kills.
	if c.standbys > 0 && !c.quick && c.kills < 3 {
		c.kills = 3
	}
	if c.standbys > 0 && c.tree > 0 {
		err = errors.New("-standbys with -tree is not supported: HA leaves under a tree need address chains in falkon-forwarder, whose -dispatchers takes one address per child")
	}
	return c, sweep, keep, err
}

// reproduce is the command line that replays c's schedule exactly: parsing
// its arguments yields c again.
func (c cfg) reproduce() string {
	return fmt.Sprintf("go run ./cmd/falkon-chaos -seed %d -quick=%v -tasks %d -execs %d -slots %d -kills %d -shards %d -tree %d -tree-depth %d -standbys %d -timeout %v",
		c.seed, c.quick, c.tasks, c.execs, c.slots, c.kills, c.shards, c.tree, c.treeDepth, c.standbys, c.waitFor)
}

func main() {
	c, sweep, keep, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "falkon-chaos:", err)
		os.Exit(2)
	}
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if c.binDir == "" {
		dir, err := os.MkdirTemp("", "falkon-chaos-bin-")
		if err != nil {
			log.Fatalf("falkon-chaos: %v", err)
		}
		defer os.RemoveAll(dir)
		log.Printf("building binaries into %s", dir)
		build := exec.Command("go", "build", "-o", dir, "./cmd/falkon-dispatcher", "./cmd/falkon-executor", "./cmd/falkon-forwarder")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			log.Fatalf("falkon-chaos: go build: %v", err)
		}
		c.binDir = dir
	}

	failed := 0
	for i := 0; i < sweep; i++ {
		r := c
		r.seed = c.seed + uint64(i)
		if err := run(r, keep); err != nil {
			failed++
			fmt.Printf("FAIL seed=%d: %v\n", r.seed, err)
			fmt.Printf("REPRODUCE: %s\n", r.reproduce())
		}
	}
	if failed > 0 {
		fmt.Printf("chaos: %d/%d seeds FAILED\n", failed, sweep)
		os.Exit(1)
	}
	fmt.Printf("chaos: %d/%d seeds passed\n", sweep, sweep)
}
