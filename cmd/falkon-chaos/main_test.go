package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dumpPlan renders the plan for a command line with placeholder addresses,
// bin and work dirs: every child's argv for restarts 0 and 1, the kill
// targets, the healed row count and the client's fault spec.
func dumpPlan(t *testing.T, args ...string) string {
	t.Helper()
	c, _, _, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	c.binDir, c.workDir = "<bin>", "<work>"
	p, err := newPlan(c, func(name string) (string, error) { return "<" + name + ">", nil })
	if err != nil {
		t.Fatal(err)
	}
	var procs []proc
	for _, g := range p.groups {
		procs = append(procs, g.nodes...)
	}
	for _, tier := range p.tiers {
		procs = append(procs, tier...)
	}
	procs = append(procs, p.execs...)
	var b strings.Builder
	for _, pr := range procs {
		for r := 0; r < 2; r++ {
			fmt.Fprintf(&b, "%s #%d: %s\n", pr.name, r, strings.Join(pr.argv(r), " "))
		}
	}
	for _, k := range p.kills {
		if g := p.groups[k.group]; g.lease == "" {
			fmt.Fprintf(&b, "kill %s at %v\n", g.name, k.at)
		} else {
			fmt.Fprintf(&b, "kill %s leader after %d done\n", g.name, k.done)
		}
	}
	fmt.Fprintf(&b, "rows %d\nclient %s\n", p.rows, clientSpec(c.seed))
	return b.String()
}

// TestPlanPinsSchedules pins, at seed 1, each topology's argv, per-restart
// fault specs, kill targets and healed row count. The golden files were
// recorded from the children's real command lines, so a change here breaks
// the replay of every REPRODUCE line printed before it.
func TestPlanPinsSchedules(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"flat", nil},
		{"shards4", []string{"-shards", "4"}},
		{"tree2", []string{"-tree", "2"}},
		{"tree4-depth3", []string{"-tree", "4", "-tree-depth", "3"}},
		{"standbys2", []string{"-standbys", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got := dumpPlan(t, append([]string{"-seed", "1"}, tc.args...)...)
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("got %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}

func TestTreeWithStandbysRejected(t *testing.T) {
	_, _, _, err := parseFlags([]string{"-tree", "2", "-standbys", "1"})
	if err == nil || !strings.Contains(err.Error(), "address chains in falkon-forwarder") {
		t.Fatalf("parseFlags(-tree 2 -standbys 1) = %v, want the missing forwarder address-chain support named", err)
	}
}

// TestReproduceReplaysConfig checks that a REPRODUCE line parses back to the
// run's exact cfg, -shards and -timeout included.
func TestReproduceReplaysConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-shards", "4", "-seed", "1"},
		{"-seed", "9", "-tree", "4", "-tree-depth", "3", "-timeout", "90s"},
		{"-standbys", "1", "-quick"},
		{"-standbys", "2", "-kills", "1"},
	} {
		c, _, _, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		line := c.reproduce()
		again, _, _, err := parseFlags(strings.Fields(line)[3:])
		if err != nil || again != c {
			t.Errorf("%v: %q parses to %+v (err %v), want %+v", args, line, again, err, c)
		}
	}
}

// TestNewSuperLogFileError checks that a log file that cannot be created is
// an error, not an exit that would orphan the children already running.
func TestNewSuperLogFileError(t *testing.T) {
	c := cfg{workDir: filepath.Join(t.TempDir(), "missing")}
	if s, err := newSuper(proc{name: "x", args: []string{"true"}}, c); err == nil {
		s.stop()
		t.Fatal("newSuper succeeded without a log file")
	}
}
