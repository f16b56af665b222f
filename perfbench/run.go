package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       *workload
	seed    int64
	length  time.Duration // the measured phases together
	traced  bool
	workDir string // scratch space inside the checkout
}

// setupBoots is how many times an untraced run boots its topology; setup_s
// is the median. The last boot carries the measured phases.
const setupBoots = 11

// nWindows is the number of measured windows per phase. The first tenth
// of each phase is warm-up and is not measured.
const nWindows = 10

type metric struct {
	name  string
	unit  string
	value float64
	n     int64 // samples behind the value
	gated bool  // part of the JSON result line; the rest are printed only
}

type report struct {
	cfg       runConfig
	clk       clock
	info      []string
	metrics   []metric
	attempted int64
	failed    int64
	problems  []string
	// spans holds the Submit and replay spans; taskSpans, set by a traced
	// run, emits the per-task span trees from the loaders' records, so
	// they are never all materialised at once.
	spans     []span
	taskSpans func(emit func(span))
}

// eachSpan calls fn for every span the run recorded.
func (r *report) eachSpan(fn func(span)) {
	for _, s := range r.spans {
		fn(s)
	}
	if r.taskSpans != nil {
		r.taskSpans(fn)
	}
}

func (r *report) add(name, unit string, value float64, n int64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, gated: true})
}

// note adds a metric that is printed but left out of the JSON result line.
func (r *report) note(name, unit string, value float64, n int64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

func (r *report) addVerdict(v verdict) {
	r.attempted += v.attempted
	r.failed += v.failed
	r.problems = append(r.problems, v.problems...)
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench %s\n", strings.Join(r.info, " "))
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

func run(cfg runConfig) (*report, error) {
	clk := clock{origin: time.Now()}
	runDir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	rep := &report{cfg: cfg, clk: clk, info: runInfo(cfg, runDir)}

	boots := setupBoots
	if cfg.traced {
		boots = 1
	}
	var setup []float64
	var sys *system
	for i := 0; i < boots; i++ {
		s, dt, err := boot(cfg.w, filepath.Join(runDir, fmt.Sprintf("boot-%d", i)), clk, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		setup = append(setup, dt.Seconds())
		if i < boots-1 {
			rep.addVerdict(s.finish())
		} else {
			sys = s
		}
	}
	if cfg.traced {
		err = runTraced(sys, rep, runDir)
	} else {
		err = runPlain(sys, rep, setup)
	}
	v := sys.finish()
	if err != nil {
		return nil, err
	}
	rep.addVerdict(v)
	if rep.failed > rep.attempted {
		rep.failed = rep.attempted
	}
	if !cfg.traced {
		// failed_frac reads 0 on a correct run, so it is printed rather
		// than gated; the result line's failed and attempted carry it.
		rep.note("failed_frac", "frac", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	} else if err := writeSpans(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runPlain measures the end-to-end metrics: an open-loop phase then a
// closed-loop phase, or one mixed phase where both loops run at once.
//
// Peak memory is read when the open-loop (or mixed) phase ends. Until then
// the work done is fixed by the workload; the closed-loop phase's task
// count grows with throughput, and so do some of the program's buffers
// (the durable workload's replication ring holds up to 64 MiB of
// journal), which would make a speed-up read as a memory regression.
func runPlain(s *system, rep *report, setup []float64) error {
	L := rep.cfg.length
	var openPh, closedPh *phaseRun
	var err error
	if s.w.mixed {
		openPh, err = s.runPhase(phase{dur: L, open: true, closed: true}, 0)
		closedPh = openPh
	} else {
		openPh, err = s.runPhase(phase{dur: L / 2, open: true}, 0)
	}
	if err != nil {
		return err
	}
	mem := peakRSSMB()
	if !s.w.mixed {
		if closedPh, err = s.runPhase(phase{dur: L / 2, closed: true}, 1); err != nil {
			return err
		}
	}

	tps, cpuK, n := closedPh.throughput()
	p50, p90, p99, nl := windowedPercentiles(s.openLatencies(openPh))
	rep.add("tasks_per_s", "1/s", tps, n)
	rep.add("latency_p50_ms", "ms", p50, nl)
	rep.note("latency_p90_ms", "ms", p90, nl)
	rep.note("latency_p99_ms", "ms", p99, nl)
	rep.add("cpu_ms_per_ktask", "ms", cpuK, n)
	rep.add("setup_s", "s", median(setup), int64(len(setup)))
	rep.add("mem_peak_mb", "MB", mem, 1)
	return nil
}

// phase is one stretch of load.
type phase struct {
	dur          time.Duration
	open, closed bool // which generators run
	traced       bool // record every task (otherwise only open-loop ones)
}

// phaseRun is what one phase measured.
type phaseRun struct {
	phase
	idx        int16
	start, end int64 // generator interval, bench clock
	win        windows
	cpu        [nWindows + 1]float64 // process CPU seconds at each window bound
	done       [nWindows]int64       // results read per window, all tenants
}

// runPhase runs p's generators, samples process CPU at the window bounds,
// and waits until every task of the phase has come back.
func (s *system) runPhase(p phase, idx int16) (*phaseRun, error) {
	pr := &phaseRun{phase: p, idx: idx}
	pr.start = s.clk.now() + int64(20*time.Millisecond)
	pr.end = pr.start + int64(p.dur)
	warm := int64(p.dur) / 10
	pr.win = windows{start: pr.start + warm, width: (int64(p.dur) - warm) / nWindows}
	for _, l := range s.loaders {
		for k := range l.winDone {
			l.winDone[k].Store(0)
		}
		l.win.Store(&pr.win)
		l.phase = idx
		l.recording = p.traced || (p.open && l == s.open)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	if p.open {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.open.openLoop(s.w.openRate, pr.start, pr.end)
		}()
	}
	if p.closed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.closed.closedLoop(s.w.window, pr.start, pr.end)
		}()
	}
	for k := 0; k <= nWindows; k++ {
		s.clk.sleepUntil(pr.win.bound(k))
		pr.cpu[k] = cpuSeconds()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, l := range s.loaders {
		if err := l.drain(60 * time.Second); err != nil {
			return nil, err
		}
	}
	for _, l := range s.loaders {
		l.win.Store(nil)
		for k := 0; k < nWindows; k++ {
			pr.done[k] += l.winDone[k].Load()
		}
	}
	return pr, nil
}

// throughput returns the median over windows of completions per second
// and of process CPU milliseconds per 1000 completions, and the number of
// completions measured.
func (pr *phaseRun) throughput() (tps, cpuPerK float64, n int64) {
	width := time.Duration(pr.win.width).Seconds()
	var rates, cpus []float64
	for k := 0; k < nWindows; k++ {
		n += pr.done[k]
		rates = append(rates, float64(pr.done[k])/width)
		if pr.done[k] > 0 {
			cpus = append(cpus, (pr.cpu[k+1]-pr.cpu[k])*1e3/(float64(pr.done[k])/1e3))
		}
	}
	return median(rates), median(cpus), n
}

// openLatencies returns, per window of pr, the latencies in ms of the
// open-loop tasks due in that window: from due time to the result being
// read from Client.Results().
func (s *system) openLatencies(pr *phaseRun) [][]float64 {
	out := make([][]float64, nWindows)
	s.open.eachRec(func(id int, r *taskRec) {
		if r.phase != pr.idx || !r.open || r.read == 0 {
			return
		}
		if k := pr.win.index(r.due); k >= 0 {
			out[k] = append(out[k], ms(r.read-r.due))
		}
	})
	return out
}

// eachRec calls fn for every recorded task of l. It runs after the
// reader has stopped or every phase has drained.
func (l *loader) eachRec(fn func(id int, r *taskRec)) {
	l.mu.Lock()
	chunks := l.chunks
	l.mu.Unlock()
	for c, ch := range chunks {
		if ch == nil {
			continue
		}
		for i := range ch {
			id := c*recChunk + i
			if id == 0 || id > int(l.nextID) {
				continue
			}
			if ch[i].send != 0 || ch[i].due != 0 {
				fn(id, &ch[i])
			}
		}
	}
}

// windowedPercentiles returns the median over windows of each window's
// p50, p90 and p99, and the total sample count.
func windowedPercentiles(wins [][]float64) (p50, p90, p99 float64, n int64) {
	var q [3][]float64
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		n += int64(len(w))
		sort.Float64s(w)
		for i, p := range [3]float64{0.50, 0.90, 0.99} {
			q[i] = append(q[i], quantileSorted(w, p))
		}
	}
	return median(q[0]), median(q[1]), median(q[2]), n
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantile returns the p-quantile of xs (linear interpolation between
// closest ranks); xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantileSorted(xs, p)
}

func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// runInfo records what a reader needs to compare two runs.
func runInfo(cfg runConfig, dir string) []string {
	trace := 0
	if cfg.traced {
		trace = 1
	}
	return []string{
		"workload=" + cfg.w.name,
		fmt.Sprintf("seed=%d", cfg.seed),
		fmt.Sprintf("seconds=%g", cfg.length.Seconds()),
		fmt.Sprintf("trace=%d", trace),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"commit=" + commit(),
		"source=" + sourceDigest(),
		"journal_fs=" + fsType(dir),
	}
}
