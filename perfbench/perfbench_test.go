package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"falkon/internal/task"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsAtTinyLength runs every workload briefly, untraced and
// traced. Each run must come back correct and print exactly the metrics
// BENCHMARK.json names for its mode, with their units. The traced run's
// spans must partition every task's latency exactly.
func TestWorkloadsAtTinyLength(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live topologies")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(runConfig{w: w, seed: 7, length: time.Second, traced: traced, workDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("failed %d of %d: %v", rep.failed, rep.attempted, rep.problems)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				got := map[string]metric{}
				for _, m := range rep.metrics {
					if m.gated {
						got[m.name] = m
					}
				}
				for _, m := range want {
					g, ok := got[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if g.unit != m.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.unit, m.Unit)
					}
					delete(got, m.Name)
				}
				for name := range got {
					t.Errorf("metric %s is not in BENCHMARK.json", name)
				}
				if traced {
					checkPartition(t, rep)
					for _, m := range rep.metrics {
						if m.name == "bench.stamp_misfits" && m.value != 0 {
							t.Errorf("%v tasks' Result stamps fall outside their client spans", m.value)
						}
					}
				}
			})
		}
	}
}

// checkPartition asserts that each task's due_send, submit and post_ack
// spans add up to its task span exactly, and that the stamp-derived
// children of post_ack add up to post_ack exactly.
func checkPartition(t *testing.T, rep *report) {
	t.Helper()
	type sums struct{ task, parts, postAck, postParts int64 }
	byTrace := map[uint64]*sums{}
	rep.eachSpan(func(s span) {
		if s.end < s.start {
			t.Errorf("span %s of trace %d ends before it starts", s.name, s.trace)
		}
		if s.trace == 0 || s.name == "submit" {
			return
		}
		x := byTrace[s.trace]
		if x == nil {
			x = &sums{}
			byTrace[s.trace] = x
		}
		d := s.end - s.start
		switch s.name {
		case "task":
			x.task += d
		case "task/due_send", "task/submit":
			x.parts += d
		case "task/post_ack":
			x.parts += d
			x.postAck += d
		default:
			x.postParts += d
		}
	})
	if len(byTrace) == 0 {
		t.Fatal("traced run recorded no task spans")
	}
	for trace, x := range byTrace {
		if x.parts != x.task || x.postParts != x.postAck {
			t.Fatalf("trace %d: parts %d vs task %d, post_ack parts %d vs post_ack %d",
				trace, x.parts, x.task, x.postParts, x.postAck)
		}
	}
}

// TestFailureCounterCatchesDropAndDuplicate feeds a loader's result reader
// a synthetic stream of ten tasks in which task 4 never comes back and
// task 7 comes back twice, and requires both to be counted.
func TestFailureCounterCatchesDropAndDuplicate(t *testing.T) {
	sys := &system{w: workloads[0], leafOf: map[string]int{"x00": 0}, offsets: []int64{0}}
	l := &loader{
		sys:      sys,
		nextID:   10,
		progress: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.issued.Store(10)
	results := make(chan task.Result)
	go l.read(results)
	for id := task.ID(1); id <= 10; id++ {
		if id == 4 {
			continue
		}
		results <- task.Result{ID: id, ExecutorID: "x00"}
		if id == 7 {
			results <- task.Result{ID: id, ExecutorID: "x00"}
		}
	}
	close(l.stop)
	<-l.done
	if got := l.failed(); got != 2 {
		t.Fatalf("failure counter = %d, want 2 (one dropped, one duplicated)", got)
	}
}
