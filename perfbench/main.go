// Command perfbench is falkon's repository benchmark. It boots a live
// loopback topology in one process through the public constructors
// (dispatch.New, executor.Start, forward.New, replica.StartStandby,
// client.Connect), drives it with an open-loop and a closed-loop load
// generator, checks that every task came back exactly once, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) followed by
// one JSON result line.
//
//	bash perfbench/run.sh --workload flat-sleep0 --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for why each workload exists and which
// end-to-end number each per-layer number should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one topology plus the load run against it.
type workload struct {
	name string
	// leaves is the number of dispatchers; with tree set they are leaves
	// under one forwarder root, otherwise there is exactly one.
	leaves  int
	tree    bool
	durable bool // group-commit journal plus one quorum standby
	execs   int
	slots   int
	bundle  int // client bundle size
	// openRate is the open-loop rate in sleep-0 tasks/s, sent once per
	// tick. It is a constant of the workload, set from the closed-loop
	// rate the parent commit reached so that the open loop measures
	// latency below saturation (README.md, "Open-loop rates").
	openRate float64
	// window is the closed-loop window of outstanding tasks.
	window int
	// batchSleep, when non-zero, draws each closed-loop task's sleep
	// uniformly from [batchSleep[0], batchSleep[1]] with the run's seed.
	batchSleep [2]time.Duration
	// openTenant and closedTenant name the tenants of the two generators;
	// equal names share one client connection.
	openTenant, closedTenant string
	// mixed runs the open and closed loops at the same time (on two
	// clients) instead of one after the other.
	mixed bool
}

// tick is the open-loop send interval. Client.Submit blocks until the
// dispatcher acknowledges the bundle, so one synchronous client sends at
// most one tick's tasks per ack; shorter ticks fall behind on the durable
// workload.
const tick = 10 * time.Millisecond

var workloads = []*workload{
	{
		name: "flat-sleep0", leaves: 1, execs: 8, slots: 1, bundle: 100,
		openRate: 8000, window: 1000,
	},
	{
		name: "durable-quorum", leaves: 1, durable: true, execs: 8, slots: 1, bundle: 100,
		openRate: 2400, window: 1000,
	},
	{
		name: "tree-tenants", leaves: 2, tree: true, execs: 16, slots: 4, bundle: 100,
		openRate: 500, window: 4000,
		batchSleep: [2]time.Duration{5 * time.Millisecond, 15 * time.Millisecond},
		openTenant: "interactive", closedTenant: "batch", mixed: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: flat-sleep0, durable-quorum, tree-tenants, or all three in turn")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	flag.Parse()

	ws := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	code := 0
	for _, w := range ws {
		rep, err := run(runConfig{
			w:       w,
			seed:    *seed,
			length:  time.Duration(*seconds * float64(time.Second)),
			traced:  *trace == 1,
			workDir: ".bench_build/perfbench",
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		out := result{
			Correct:   rep.failed == 0,
			Attempted: rep.attempted,
			Failed:    rep.failed,
			Metrics:   make(map[string]metricValue, len(rep.metrics)),
		}
		for _, m := range rep.metrics {
			if m.gated {
				out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
			}
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !out.Correct {
			code = 1
		}
	}
	os.Exit(code)
}
