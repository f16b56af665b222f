package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"falkon/internal/client"
	"falkon/internal/task"
)

// clock is the benchmark's one timeline: monotonic nanoseconds since the
// run began. Dispatcher stamps are moved onto it with a per-dispatcher
// offset taken once at boot (see system.offsets).
type clock struct{ origin time.Time }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// at converts a time read in this process to the bench clock.
func (c clock) at(t time.Time) int64 { return int64(t.Sub(c.origin)) }

// sleepUntil sleeps until the clock reads t, or returns at once if it
// already has.
func (c clock) sleepUntil(t int64) {
	if d := time.Duration(t - c.now()); d > 0 {
		time.Sleep(d)
	}
}

// taskRec is the traced record of one task. The generator writes the send
// side before Submit (and ack after it); the result reader writes the
// receive side. The two never touch the same field.
type taskRec struct {
	due, send, ack int64 // bench clock; a closed-loop task is due when sent
	dur            int64 // requested run time, ns
	phase          int16
	open           bool

	read       int64 // bench clock, when the result left Client.Results()
	q, d, s, f int64 // Result stamps moved onto the bench clock
	leaf       int16 // dispatcher that ran it, from Result.ExecutorID
}

// recChunk is a block of records for consecutive task IDs. Records exist
// only for tasks submitted while recording is on, so the untraced
// closed-loop phases keep no per-task state beyond one delivery counter.
const recChunk = 4096

// submitRec is one Client.Submit call.
type submitRec struct {
	start, end int64
	head       task.ID
	phase      int16
}

// windows are a phase's measured sub-intervals on the bench clock:
// nWindows equal windows of width ns starting at start. Metrics are taken
// per window and reported as the median over windows, so one stall in a
// shared machine moves one window rather than the whole run.
type windows struct {
	start, width int64
}

// index returns the window t falls in, or -1 outside every window.
func (w *windows) index(t int64) int {
	if w == nil || t < w.start {
		return -1
	}
	k := int((t - w.start) / w.width)
	if k >= nWindows {
		return -1
	}
	return k
}

func (w *windows) bound(k int) int64 { return w.start + int64(k)*w.width }

// loader is one tenant's client connection plus the ledger of every task
// it submitted and every result it read back.
type loader struct {
	tenant string
	cli    *client.Client
	bundle int
	clk    clock
	sys    *system

	// Generator side: one generator goroutine at a time owns these.
	nextID  task.ID
	issued  atomic.Int64 // nextID, published for the reader
	sent    int64        // tasks submitted
	submits []submitRec
	late    []int64 // open-loop send lateness per tick, ns, with phase tags
	latePh  []int16
	trace0  uint64 // Task.Trace minus Task.ID, learnt from the first Submit
	rng     *rand.Rand

	// recording turns on per-task records for tasks submitted from now.
	recording bool
	phase     int16

	mu     sync.Mutex // guards chunks (the table, not the records)
	chunks []*[recChunk]taskRec

	// Reader side: the reader goroutine owns seen, stray and failed until
	// done is closed.
	seen     []uint8 // deliveries per task ID
	stray    int64   // results whose ID was never handed out
	failures int64   // results with a non-zero exit code or an error
	received atomic.Int64
	progress chan struct{} // poked after each result (closed-loop credit)
	win      atomic.Pointer[windows]
	winDone  [nWindows]atomic.Int64 // results read per window
	stop     chan struct{}
	done     chan struct{}
}

func newLoader(sys *system, tenant string, cli *client.Client, bundle int, seed int64) *loader {
	l := &loader{
		tenant:   tenant,
		cli:      cli,
		bundle:   bundle,
		clk:      sys.clk,
		sys:      sys,
		rng:      rand.New(rand.NewSource(seed)),
		phase:    -1, // boot probes belong to no phase
		progress: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go l.read(cli.Results())
	return l
}

// rec returns the record for id, or nil when the task was not recorded.
func (l *loader) rec(id task.ID) *taskRec {
	c := int(id / recChunk)
	l.mu.Lock()
	defer l.mu.Unlock()
	if c >= len(l.chunks) || l.chunks[c] == nil {
		return nil
	}
	return &l.chunks[c][id%recChunk]
}

// newRec returns a zeroed record for id, allocating its chunk.
func (l *loader) newRec(id task.ID) *taskRec {
	c := int(id / recChunk)
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.chunks) <= c {
		l.chunks = append(l.chunks, nil)
	}
	if l.chunks[c] == nil {
		l.chunks[c] = new([recChunk]taskRec)
	}
	return &l.chunks[c][id%recChunk]
}

// read drains results (the client's Results channel) until stop, keeping
// the delivery counts the exactly-once check needs and, for recorded
// tasks, the receive side.
func (l *loader) read(results <-chan task.Result) {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case r := <-results:
			now := l.clk.now()
			id := int(r.ID)
			if id <= 0 || task.ID(id) >= l.nextIDBound() {
				l.stray++
			} else {
				for len(l.seen) <= id {
					l.seen = append(l.seen, 0)
				}
				if l.seen[id] < math.MaxUint8 {
					l.seen[id]++
				}
				if l.seen[id] == 1 {
					if k := l.win.Load().index(now); k >= 0 {
						l.winDone[k].Add(1)
					}
					if rec := l.rec(r.ID); rec != nil {
						rec.read = now
						leaf := l.sys.leafOf[r.ExecutorID]
						rec.leaf = int16(leaf)
						off := l.sys.offsets[leaf]
						rec.q = off + int64(r.QueuedAt)
						rec.d = off + int64(r.DispatchedAt)
						rec.s = off + int64(r.StartedAt)
						rec.f = off + int64(r.FinishedAt)
					}
				}
			}
			if r.Failed() {
				l.failures++
			}
			l.received.Add(1)
			select {
			case l.progress <- struct{}{}:
			default:
			}
		}
	}
}

// failed counts the tasks that did not come back exactly once with exit
// code 0: missing, duplicated, failed, plus results for IDs never handed
// out. It runs after the reader has stopped.
func (l *loader) failed() int64 {
	bad := l.stray + l.failures
	for id := 1; id <= int(l.nextID); id++ {
		if id >= len(l.seen) || l.seen[id] != 1 {
			bad++
		}
	}
	return bad
}

// nextIDBound is one past the highest ID handed out so far; the reader
// uses it to recognise stray result IDs.
func (l *loader) nextIDBound() task.ID { return task.ID(l.issued.Load()) + 1 }

// makeTasks builds the next n tasks, recording them when recording is on.
func (l *loader) makeTasks(n int, due int64, open bool) []task.Task {
	ts := make([]task.Task, n)
	for i := range ts {
		l.nextID++
		var d time.Duration
		if !open && l.sys.w.batchSleep[1] > 0 {
			lo, hi := l.sys.w.batchSleep[0], l.sys.w.batchSleep[1]
			d = lo + time.Duration(l.rng.Int63n(int64(hi-lo)+1))
		}
		ts[i] = task.Sleep(l.nextID, d)
		if l.recording {
			rec := l.newRec(l.nextID)
			rec.due = due
			rec.dur = int64(d)
			rec.phase = l.phase
			rec.open = open
		}
	}
	l.issued.Store(int64(l.nextID))
	return ts
}

// submit sends one bundle and records the call.
func (l *loader) submit(ts []task.Task) error {
	start := l.clk.now()
	if l.recording {
		for _, t := range ts {
			l.rec(t.ID).send = start
		}
	}
	l.sent += int64(len(ts))
	if err := l.cli.Submit(ts); err != nil {
		return fmt.Errorf("%s: submit: %w", l.tenant, err)
	}
	end := l.clk.now()
	if l.trace0 == 0 {
		l.trace0 = ts[0].Trace - uint64(ts[0].ID)
	}
	if l.recording {
		for _, t := range ts {
			l.rec(t.ID).ack = end
		}
	}
	l.submits = append(l.submits, submitRec{start: start, end: end, head: ts[0].ID, phase: l.phase})
	return nil
}

// openLoop sends sleep-0 tasks at rate per second in one Submit per tick
// from start until end. Each tick's tasks are due at the tick; when a
// Submit stalls, later ticks go out late and their latency counts it.
func (l *loader) openLoop(rate float64, start, end int64) error {
	perTick := rate * tick.Seconds()
	for k := 0; ; k++ {
		due := start + int64(k)*int64(tick)
		if due >= end {
			return nil
		}
		n := int(math.Floor(float64(k+1)*perTick) - math.Floor(float64(k)*perTick))
		if n == 0 {
			continue
		}
		l.clk.sleepUntil(due)
		ts := l.makeTasks(n, due, true)
		l.late = append(l.late, l.clk.now()-due)
		l.latePh = append(l.latePh, l.phase)
		if err := l.submit(ts); err != nil {
			return err
		}
	}
}

// closedLoop keeps window tasks outstanding from start until end, sending
// a bundle whenever a whole bundle's worth of results has come back.
func (l *loader) closedLoop(window int, start, end int64) error {
	l.clk.sleepUntil(start)
	stop := time.NewTimer(time.Duration(end - l.clk.now()))
	defer stop.Stop()
	for l.clk.now() < end {
		for l.sent-l.received.Load()+int64(l.bundle) > int64(window) {
			select {
			case <-l.progress:
			case <-stop.C:
				return nil
			}
		}
		if err := l.submit(l.makeTasks(l.bundle, l.clk.now(), false)); err != nil {
			return err
		}
	}
	return nil
}

// drain waits until every submitted task has a result, or timeout. It
// runs after the generators have returned.
func (l *loader) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for l.received.Load() < l.sent {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d of %d results after %v", l.tenant, l.received.Load(), l.sent, timeout)
		}
		select {
		case <-l.progress:
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}
