package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wal"
)

// schedTasks is the fixed task count of the sched replay: a count, not a
// duration, so allocs_per_task repeats exactly.
const schedTasks = 400_000

type schedResult struct {
	nsPerTask, allocsPerTask float64
	tasks                    int
}

// schedReplay drives a standalone sched.Core the way the dispatcher does
// for w: Enqueue a client bundle, Pick and Assign onto every idle
// executor slot, Complete, repeat. The tree workload's replay alternates
// bundles between its two tenants under the same fair-share weights.
func schedReplay(w *workload, rep *report) schedResult {
	type item struct{ tenant string }
	core := sched.NewCore[int, uint64, item](sched.Options[item]{
		Tenant: func(it item) string { return it.tenant },
	})
	tenants := []string{""}
	if w.tree {
		core.SetFairShare(&sched.FairShare{Weights: map[string]float64{w.closedTenant: 1, w.openTenant: 4}})
		tenants = []string{w.closedTenant, w.openTenant}
	}
	for i := 0; i < w.execs; i++ {
		core.Offer(core.AddExec(i, w.slots))
	}
	out := make([]*sched.Outstanding[int, uint64, item], 0, w.execs*w.slots)
	var key uint64
	var now time.Duration
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	done := 0
	for round := 0; done < schedTasks; round++ {
		t0 := time.Now()
		it := item{tenant: tenants[round%len(tenants)]}
		for i := 0; i < w.bundle; i++ {
			now++
			core.Enqueue(now, it)
		}
		for core.QueueLen() > 0 {
			for core.QueueLen() > 0 {
				x, ok := core.PopIdle()
				if !ok {
					break
				}
				for x.Free() > 0 {
					picked, _, ok := core.Pick(x)
					if !ok {
						break
					}
					key++
					now++
					out = append(out, core.Assign(now, x, key, picked))
				}
			}
			for _, o := range out {
				core.Complete(o.Executor, o.Key)
				if x, ok := core.Exec(o.Executor); ok {
					core.Offer(x)
				}
			}
			done += len(out)
			clear(out)
			out = out[:0]
		}
		rep.spans = append(rep.spans, span{name: "replay/sched.round", start: rep.clk.at(t0), end: rep.clk.at(time.Now())})
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return schedResult{
		nsPerTask:     float64(elapsed.Nanoseconds()) / float64(done),
		allocsPerTask: float64(m1.Mallocs-m0.Mallocs) / float64(done),
		tasks:         done,
	}
}

// walReplay times AppendWait + Handle.Wait of accept records the size of
// w's client bundle, one at a time, for d, on a group-commit journal that
// wal.Recover opens on the same filesystem as the workload's journal. It
// returns each wait in ms.
func walReplay(w *workload, runDir string, d time.Duration, rep *report) ([]float64, error) {
	dir := filepath.Join(runDir, "wal-replay")
	defer os.RemoveAll(dir)
	_, j, _, err := wal.Recover(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	const epr = "replay-1"
	if err := appendWait(j, wal.KindInstance, wal.InstanceRec{EPR: epr}); err != nil {
		j.Close()
		return nil, err
	}
	tasks := make([]task.Task, w.bundle)
	var id task.ID
	var waits []float64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := range tasks {
			id++
			tasks[i] = task.Sleep(id, 0)
		}
		t0 := time.Now()
		if err := appendWait(j, wal.KindAccept, wal.AcceptRec{EPR: epr, Tasks: tasks}); err != nil {
			j.Close()
			return nil, err
		}
		t1 := time.Now()
		waits = append(waits, float64(t1.Sub(t0).Nanoseconds())/1e6)
		rep.spans = append(rep.spans, span{name: "replay/wal.append_wait", start: rep.clk.at(t0), end: rep.clk.at(t1)})
	}
	if err := j.Close(); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	return waits, nil
}

func appendWait(j *wal.Journal, kind wal.Kind, v any) error {
	h, err := j.AppendWait(kind, v)
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	if err := h.Wait(); err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	return nil
}
