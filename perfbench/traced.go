package main

import (
	"strings"
	"time"

	"falkon/internal/obs"
)

// runTraced measures the per-layer metrics. Traced phases record every
// task; an untraced closed-loop (or mixed) phase of the same shape is the
// reference for bench.trace_overhead_frac. The layer replays run last, on
// an idle system.
//
// The per-layer numbers come from three places, none inside the program:
// the benchmark's own timing of its calls (Submit, result receipt, the
// replays), the Result stamps and executor IDs the program returns, and
// the counters and histograms its registries already expose.
func runTraced(s *system, rep *report, runDir string) error {
	L := rep.cfg.length
	// Phases in run order. On the flat topologies the untraced reference
	// runs after the open-loop phase, so both closed-loop phases follow the
	// same warm-up.
	var plan []phase
	if s.w.mixed {
		plan = []phase{
			{dur: L * 3 / 10, open: true, closed: true},
			{dur: L * 4 / 10, open: true, closed: true, traced: true},
		}
	} else {
		plan = []phase{
			{dur: L * 3 / 10, open: true, traced: true},
			{dur: L / 5, closed: true},
			{dur: L / 5, closed: true, traced: true},
		}
	}
	var plain, closedTraced *phaseRun
	var traced []*phaseRun
	d := newRegSnap()
	var after snap
	var lag lagSampler
	var tasks, wall, allocB, gcCPU, totalCPU float64
	for i, p := range plan {
		if !p.traced {
			pr, err := s.runPhase(p, int16(i))
			if err != nil {
				return err
			}
			plain = pr
			continue
		}
		b := s.snapshot()
		stopLag := s.sampleLag(&lag)
		pr, err := s.runPhase(p, int16(i))
		stopLag()
		if err != nil {
			return err
		}
		a := s.snapshot()
		d.add(a.reg.diff(b.reg))
		after = a
		tasks += float64(a.completed - b.completed)
		wall += time.Duration(a.at - b.at).Seconds()
		allocB += a.rt.allocBytes - b.rt.allocBytes
		gcCPU += a.rt.gcCPU - b.rt.gcCPU
		totalCPU += a.rt.totalCPU - b.rt.totalCPU
		traced = append(traced, pr)
		if p.closed {
			closedTraced = pr
		}
	}

	isTraced := func(ph int16) bool {
		for _, pr := range traced {
			if pr.idx == ph {
				return true
			}
		}
		return false
	}
	perTask := func(x float64) float64 {
		if tasks == 0 {
			return 0
		}
		return x / tasks
	}
	n := int(tasks)

	// client
	var submitMs, postAck, latency []float64
	for _, l := range s.loaders {
		for _, c := range l.submits {
			if isTraced(c.phase) {
				submitMs = append(submitMs, ms(c.end-c.start))
			}
		}
	}
	var queue, pickup, overrun []float64
	var busy int64
	var misfits int64
	perLeaf := make([]int64, len(s.disps))
	for _, l := range s.loaders {
		l.eachRec(func(id int, r *taskRec) {
			if !isTraced(r.phase) || r.read == 0 {
				return
			}
			if r.open {
				postAck = append(postAck, ms(r.read-r.ack))
				latency = append(latency, ms(r.read-r.due))
				queue = append(queue, ms(r.d-r.q))
				pickup = append(pickup, ms(r.s-r.d))
			}
			if !stampsFit(r) {
				misfits++
			}
			busy += r.f - r.s
			overrun = append(overrun, ms(r.f-r.s-r.dur))
			perLeaf[r.leaf]++
		})
		for _, c := range l.submits {
			if isTraced(c.phase) {
				rep.spans = append(rep.spans, span{trace: l.trace0 + uint64(c.head), name: "submit", start: c.start, end: c.end})
			}
		}
	}
	rep.taskSpans = func(emit func(span)) {
		for _, l := range s.loaders {
			l.eachRec(func(id int, r *taskRec) {
				if isTraced(r.phase) && r.read != 0 {
					taskSpans(l.trace0+uint64(id), r, emit)
				}
			})
		}
	}
	var throttled int64
	for _, l := range s.loaders {
		throttled += l.cli.Throttled()
	}
	rep.addLayer("client.submit_ms_p50", "ms", quantile(submitMs, 0.50), len(submitMs))
	rep.addLayer("client.submit_ms_p99", "ms", quantile(submitMs, 0.99), len(submitMs))
	rep.addLayer("client.post_ack_ms_p50", "ms", quantile(postAck, 0.50), len(postAck))
	rep.addLayer("client.latency_p90_ms", "ms", quantile(latency, 0.90), len(latency))
	rep.addLayer("client.latency_p99_ms", "ms", quantile(latency, 0.99), len(latency))
	rep.addLayer("client.throttled", "count", float64(throttled), 1)

	// wsrpc
	rep.addLayer("wsrpc.calls_per_task", "calls", perTask(d.counterPrefix("wsrpc_calls_total")), n)
	rep.addLayer("wsrpc.frame_write_us_per_task", "us", perTask(d.histSum(obs.OverheadKey(obs.OverheadFrameWrite))*1e6), n)

	// dispatch
	rep.addLayer("dispatch.queue_ms_p50", "ms", quantile(queue, 0.50), len(queue))
	rep.addLayer("dispatch.queue_ms_p99", "ms", quantile(queue, 0.99), len(queue))
	rep.addLayer("dispatch.pickup_ms_p50", "ms", quantile(pickup, 0.50), len(pickup))
	rep.addLayer("dispatch.lock_wait_us_per_task", "us", perTask(d.histSum(obs.OverheadKey(obs.OverheadLockWait))*1e6), n)
	rep.addLayer("dispatch.sched_core_us_per_task", "us", perTask(d.histSum(obs.OverheadKey(obs.OverheadSchedCore))*1e6), n)
	rep.addLayer("dispatch.fx_flush_us_per_task", "us", perTask(d.histSum(obs.OverheadKey(obs.OverheadFxFlush))*1e6), n)
	rep.addLayer("dispatch.notifications_per_task", "count", perTask(d.counters["falkon_notifications_total"]), n)

	// sched (layer replay)
	sr := schedReplay(s.w, rep)
	rep.addLayer("sched.ns_per_task", "ns", sr.nsPerTask, sr.tasks)
	rep.addLayer("sched.allocs_per_task", "allocs", sr.allocsPerTask, sr.tasks)

	// wal: counters from the dispatcher's registry, which read 0 where
	// nothing journals, plus a layer replay on the checkout's filesystem,
	// which measures the journal alone and so runs on every workload.
	walWait, err := walReplay(s.w, runDir, L*3/20, rep)
	if err != nil {
		return err
	}
	rep.addLayer("wal.fsyncs_per_ktask", "count", perTask(d.counters["falkon_wal_fsyncs_total"])*1e3, n)
	rep.addLayer("wal.bytes_per_task", "B", perTask(d.counters["falkon_wal_bytes_total"]), n)
	rep.addLayer("wal.records_per_task", "count", perTask(d.counters["falkon_wal_appends_total"]), n)
	rep.addLayer("wal.commit_busy_frac", "frac", d.histSum(obs.MetricWALCommitSeconds)/wall, n)
	rep.addLayer("wal.append_wait_ms_p50", "ms", quantile(walWait, 0.50), len(walWait))
	rep.addLayer("wal.append_wait_ms_p99", "ms", quantile(walWait, 0.99), len(walWait))

	// replica
	rep.addLayer("replica.lag_records_max", "records", float64(lag.max), lag.samples)
	rep.addLayer("replica.quorum_degraded", "count", float64(after.degraded), 1)

	// forward: the share of work each leaf completed. A flat topology has
	// no forwarder, so the number reads 0 there.
	skew := 0.0
	if s.w.tree {
		skew = maxOverMin(perLeaf)
	}
	rep.addLayer("forward.leaf_share_skew", "ratio", skew, n)

	// executor
	slots := float64(len(s.execs) * s.w.slots)
	execTasks := make([]int64, len(s.execs))
	for i, ex := range s.execs {
		execTasks[i] = ex.TasksRun()
	}
	rep.addLayer("executor.slot_util", "frac", time.Duration(busy).Seconds()/(slots*wall), n)
	rep.addLayer("executor.run_overrun_ms_p99", "ms", quantile(overrun, 0.99), len(overrun))
	rep.addLayer("executor.tasks_skew", "ratio", maxOverMin(execTasks), len(execTasks))

	// runtime
	rep.addLayer("runtime.alloc_mb_per_ktask", "MB", perTask(allocB)/(1<<20)*1e3, n)
	gcFrac := 0.0
	if totalCPU > 0 {
		gcFrac = gcCPU / totalCPU
	}
	rep.addLayer("runtime.gc_cpu_frac", "frac", gcFrac, n)

	// bench: the load generator itself, and the price of tracing.
	var late []float64
	for i, ns := range s.open.late {
		if isTraced(s.open.latePh[i]) {
			late = append(late, ms(ns))
		}
	}
	rep.addLayer("bench.gen_late_ms_max", "ms", quantile(late, 1), len(late))
	rep.addLayer("bench.gen_late_ms_p99", "ms", quantile(late, 0.99), len(late))
	plainTps, _, np := plain.throughput()
	tracedTps, _, _ := closedTraced.throughput()
	over := 0.0
	if plainTps > 0 {
		over = (plainTps - tracedTps) / plainTps
	}
	rep.addLayer("bench.trace_overhead_frac", "frac", over, int(np))
	rep.addLayer("bench.stamp_misfits", "count", float64(misfits), n)
	return nil
}

func (r *report) addLayer(name, unit string, value float64, n int) {
	r.add(name, unit, value, int64(n))
}

// clockSlack bounds the disagreement between the bench clock and the
// dispatchers' stamps. Both are monotonic readings in one process joined
// by one wall-clock offset taken at boot, and executors report run
// durations rather than absolute times, so only the offset's two wall
// readings can disagree.
const clockSlack = int64(time.Millisecond)

// stampsFit reports whether a task's Result stamps lie inside the client's
// view of it: queued no earlier than sent, finished no later than read.
// The stamp-derived stages then account for the post-ack span.
func stampsFit(r *taskRec) bool {
	return r.q >= r.send-clockSlack && r.f <= r.read+clockSlack &&
		r.q <= r.d && r.d <= r.s && r.s <= r.f
}

func maxOverMin(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return float64(hi) / float64(max(lo, 1))
}

// snap is the state the per-layer deltas are taken between.
type snap struct {
	at        int64
	reg       regSnap
	rt        rtSample
	completed int64
	degraded  int64
}

func (s *system) snapshot() snap {
	out := snap{at: s.clk.now(), reg: newRegSnap(), rt: readRuntime()}
	for _, d := range s.disps {
		ms := d.Metrics().Snapshot()
		for k, v := range ms.Counters {
			out.reg.counters[k] += float64(v)
		}
		for k, h := range ms.Histograms {
			out.reg.hists[k] += h.Sum
		}
		st := d.Stats()
		out.completed += st.Completed
		if st.Replication != nil {
			out.degraded += st.Replication.QuorumDegraded
		}
	}
	return out
}

// regSnap is the dispatchers' registries summed: counter values and
// histogram sums.
type regSnap struct {
	counters map[string]float64
	hists    map[string]float64
}

func newRegSnap() regSnap {
	return regSnap{counters: map[string]float64{}, hists: map[string]float64{}}
}

func (a regSnap) diff(b regSnap) regSnap {
	out := newRegSnap()
	for k, v := range a.counters {
		out.counters[k] = v - b.counters[k]
	}
	for k, v := range a.hists {
		out.hists[k] = v - b.hists[k]
	}
	return out
}

// add folds another phase's delta into r.
func (r regSnap) add(o regSnap) {
	for k, v := range o.counters {
		r.counters[k] += v
	}
	for k, v := range o.hists {
		r.hists[k] += v
	}
}

func (r regSnap) counterPrefix(prefix string) float64 {
	var sum float64
	for k, v := range r.counters {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

func (r regSnap) histSum(key string) float64 { return r.hists[key] }

// lagSampler holds the largest replication lag seen by sampleLag.
type lagSampler struct {
	max     int64
	samples int
}

// sampleLag polls the leader's replication lag into ls every 5 ms until
// the returned stop function is called; stop returns once polling has
// ended. Workloads without a standby take no samples.
func (s *system) sampleLag(ls *lagSampler) (stop func()) {
	if !s.w.durable {
		return func() {}
	}
	d := s.disps[0]
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			if rs := d.Stats().Replication; rs != nil {
				for _, sb := range rs.Standbys {
					ls.max = max(ls.max, sb.Lag)
				}
				ls.samples++
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
