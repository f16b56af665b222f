// Package faultinj is the deterministic fault-injection layer behind the
// chaos harness (cmd/falkon-chaos). It attacks the three surfaces the
// durability work depends on:
//
//   - transport: wsrpc connections (injected latency, dropped connections,
//     mid-frame disconnects, short writes, asymmetric partitions,
//     duplicated notify pushes) via a net.Conn wrapper;
//   - disk: the WAL's filesystem surface (fsync errors, torn appends,
//     ENOSPC, slow disk) via a wal.FS wrapper;
//   - executors: crash mid-task, stall, deliver-result-then-die.
//
// Every decision is a deterministic function of (seed, stream, op index):
// each connection, file, and executor hook owns a numbered decision
// stream, and the n-th operation on a stream faults iff a seeded hash of
// (seed, stream id, n) lands under the configured probability. Re-running
// with the same seed replays the same fault schedule per stream — which is
// what makes a chaos-harness violation reproducible from its printed seed.
// (Cross-stream interleaving still follows the OS scheduler; determinism
// is per stream, not global.)
//
// Injected faults are counted in the falkon_fault_injected_total{fault=...}
// metric family and, with a Logf sink, logged one line per injection.
package faultinj

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"falkon/internal/metrics"
	"falkon/internal/obs"
)

// Fault classes. Each class rolls on its own sub-stream so enabling one
// fault never perturbs another's schedule.
const (
	classLatency = iota + 1
	classDrop
	classMidFrame
	classShortWrite
	classPartition
	classDupNotify
	classFsyncErr
	classTornWrite
	classENOSPC
	classSlowDisk
	classCrash
	classStall
	classResultDie
	nClasses
)

var classNames = [nClasses]string{
	classLatency:    "latency",
	classDrop:       "drop",
	classMidFrame:   "midframe",
	classShortWrite: "shortwrite",
	classPartition:  "partition",
	classDupNotify:  "dupnotify",
	classFsyncErr:   "fsyncerr",
	classTornWrite:  "tornwrite",
	classENOSPC:     "enospc",
	classSlowDisk:   "slowdisk",
	classCrash:      "crash",
	classStall:      "stall",
	classResultDie:  "resultdie",
}

// Spec configures which faults fire and how often. The zero Spec injects
// nothing. Probabilities are per operation (per conn read/write, per file
// write/sync, per task), in [0, 1].
type Spec struct {
	// Seed drives every decision stream (default 1).
	Seed uint64

	// Transport faults (wsrpc connections).
	LatencyP    float64       // delay a read or write by Latency
	Latency     time.Duration // default 2ms
	DropP       float64       // close the connection instead of writing
	MidFrameP   float64       // write half the buffer, then close (torn frame)
	ShortWriteP float64       // tear the last bytes off a write, then close
	PartitionP  float64       // asymmetric partition: inbound blackholes for Partition while outbound flows
	Partition   time.Duration // default 1s
	DupNotifyP  float64       // send a notify frame twice

	// Disk faults (the WAL's filesystem surface).
	FsyncErrP  float64       // fail an fsync
	TornWriteP float64       // persist only a prefix of an append batch, then fail
	ENOSPCP    float64       // fail a write with ENOSPC
	SlowDiskP  float64       // delay a write or sync by SlowDisk
	SlowDisk   time.Duration // default 5ms

	// Executor faults.
	CrashP     float64       // crash (exit) before running a pulled task
	StallP     float64       // stall Stall mid-task (provokes replay timeouts)
	Stall      time.Duration // default 2s
	ResultDieP float64       // crash immediately after delivering results
}

// Enabled reports whether any fault has a nonzero probability.
func (s Spec) Enabled() bool {
	return s.LatencyP > 0 || s.DropP > 0 || s.MidFrameP > 0 || s.ShortWriteP > 0 ||
		s.PartitionP > 0 || s.DupNotifyP > 0 || s.FsyncErrP > 0 || s.TornWriteP > 0 ||
		s.ENOSPCP > 0 || s.SlowDiskP > 0 || s.CrashP > 0 || s.StallP > 0 || s.ResultDieP > 0
}

// withDefaults fills unset durations and the seed.
func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Latency <= 0 {
		s.Latency = 2 * time.Millisecond
	}
	if s.Partition <= 0 {
		s.Partition = time.Second
	}
	if s.SlowDisk <= 0 {
		s.SlowDisk = 5 * time.Millisecond
	}
	if s.Stall <= 0 {
		s.Stall = 2 * time.Second
	}
	return s
}

// field maps a spec-string fault name to its probability and optional
// duration parameter.
func (s *Spec) field(name string) (p *float64, d *time.Duration) {
	switch name {
	case "latency":
		return &s.LatencyP, &s.Latency
	case "drop":
		return &s.DropP, nil
	case "midframe":
		return &s.MidFrameP, nil
	case "shortwrite":
		return &s.ShortWriteP, nil
	case "partition":
		return &s.PartitionP, &s.Partition
	case "dupnotify":
		return &s.DupNotifyP, nil
	case "fsyncerr":
		return &s.FsyncErrP, nil
	case "tornwrite":
		return &s.TornWriteP, nil
	case "enospc":
		return &s.ENOSPCP, nil
	case "slowdisk":
		return &s.SlowDiskP, &s.SlowDisk
	case "crash":
		return &s.CrashP, nil
	case "stall":
		return &s.StallP, &s.Stall
	case "resultdie":
		return &s.ResultDieP, nil
	}
	return nil, nil
}

// Parse reads a compact fault spec: comma-separated `name[=dur]@prob`
// entries plus `seed=N`, e.g.
//
//	seed=42,latency=2ms@0.05,drop@0.01,fsyncerr@0.02,stall=500ms@0.01
//
// Unknown names and malformed probabilities are errors, so a typo in a CI
// pipeline fails loudly instead of silently injecting nothing. An empty
// string parses to the zero Spec.
func Parse(in string) (Spec, error) {
	var s Spec
	in = strings.TrimSpace(in)
	if in == "" {
		return s, nil
	}
	for _, part := range strings.Split(in, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest := part, ""
		if i := strings.IndexByte(part, '@'); i >= 0 {
			name, rest = part[:i], part[i+1:]
		}
		var durStr string
		if i := strings.IndexByte(name, '='); i >= 0 {
			name, durStr = name[:i], name[i+1:]
		}
		if name == "seed" {
			n, err := strconv.ParseUint(durStr, 10, 64)
			if err != nil || rest != "" {
				return s, fmt.Errorf("faultinj: bad seed in %q", part)
			}
			s.Seed = n
			continue
		}
		p, d := s.field(name)
		if p == nil {
			return s, fmt.Errorf("faultinj: unknown fault %q", name)
		}
		if durStr != "" {
			if d == nil {
				return s, fmt.Errorf("faultinj: fault %q takes no duration", name)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return s, fmt.Errorf("faultinj: bad duration in %q", part)
			}
			*d = dur
		}
		if rest == "" {
			return s, fmt.Errorf("faultinj: missing @probability in %q", part)
		}
		prob, err := strconv.ParseFloat(rest, 64)
		if err != nil || prob < 0 || prob > 1 {
			return s, fmt.Errorf("faultinj: bad probability in %q", part)
		}
		*p = prob
	}
	return s, nil
}

// String renders the spec in the exact form Parse reads, so a schedule can
// be handed to a child process through a flag or FALKON_FAULTS.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	emit := func(name string, p float64, d time.Duration) {
		if p <= 0 {
			return
		}
		b.WriteByte(',')
		b.WriteString(name)
		if d > 0 {
			b.WriteByte('=')
			b.WriteString(d.String())
		}
		fmt.Fprintf(&b, "@%g", p)
	}
	emit("latency", s.LatencyP, s.Latency)
	emit("drop", s.DropP, 0)
	emit("midframe", s.MidFrameP, 0)
	emit("shortwrite", s.ShortWriteP, 0)
	emit("partition", s.PartitionP, s.Partition)
	emit("dupnotify", s.DupNotifyP, 0)
	emit("fsyncerr", s.FsyncErrP, 0)
	emit("tornwrite", s.TornWriteP, 0)
	emit("enospc", s.ENOSPCP, 0)
	emit("slowdisk", s.SlowDiskP, s.SlowDisk)
	emit("crash", s.CrashP, 0)
	emit("stall", s.StallP, s.Stall)
	emit("resultdie", s.ResultDieP, 0)
	return b.String()
}

// Injector makes seeded fault decisions and counts what it injects. A nil
// *Injector is inert: every hook is safe to call and injects nothing, so
// integration points need no guards.
type Injector struct {
	spec Spec
	logf func(format string, args ...any)

	nextStream atomic.Uint64           // conn / file stream allocator
	hookN      [nClasses]atomic.Uint64 // op counters for injector-level hooks

	counters [nClasses]*metrics.Counter
	injected [nClasses]atomic.Int64
}

// New builds an injector from a spec. reg receives the
// falkon_fault_injected_total{fault=...} counter family (nil keeps the
// counters unregistered); logf, when set, logs one line per injection.
// A spec with no enabled fault returns nil — the inert injector.
func New(spec Spec, reg *obs.Registry, logf func(format string, args ...any)) *Injector {
	if !spec.Enabled() {
		return nil
	}
	inj := &Injector{spec: spec.withDefaults(), logf: logf}
	for c := 1; c < nClasses; c++ {
		inj.counters[c] = reg.Counter(obs.Labeled("falkon_fault_injected_total", "fault", classNames[c]))
	}
	return inj
}

// Spec returns the (defaulted) spec the injector runs.
func (inj *Injector) Spec() Spec {
	if inj == nil {
		return Spec{}
	}
	return inj.spec
}

// mix is splitmix64's finalizer — the hash behind every decision.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chance reports whether op n of class on stream faults: a pure function
// of (seed, stream, class, n).
func (inj *Injector) chance(stream uint64, class int, n uint64, p float64) bool {
	if inj == nil || p <= 0 {
		return false
	}
	h := mix(mix(inj.spec.Seed^mix(stream<<8|uint64(class))) + n)
	return float64(h>>11)/(1<<53) < p
}

// note counts (and optionally logs) one injected fault.
func (inj *Injector) note(stream uint64, class int, n uint64) {
	inj.injected[class].Add(1)
	if c := inj.counters[class]; c != nil {
		c.Inc()
	}
	if inj.logf != nil {
		inj.logf("faultinj: %s stream=%d op=%d", classNames[class], stream, n)
	}
}

// hook rolls an injector-level decision stream (executor hooks, notify
// duplication): stream 0, one op counter per class.
func (inj *Injector) hook(class int, p float64) bool {
	if inj == nil || p <= 0 {
		return false
	}
	n := inj.hookN[class].Add(1)
	if !inj.chance(0, class, n, p) {
		return false
	}
	inj.note(0, class, n)
	return true
}

// DupNotify reports whether this notify push should be sent twice
// (implements wsrpc.ConnFaults).
func (inj *Injector) DupNotify() bool { return inj.hook(classDupNotify, inj.specP(classDupNotify)) }

// ExecCrash reports whether the executor should crash before running the
// next task.
func (inj *Injector) ExecCrash() bool { return inj.hook(classCrash, inj.specP(classCrash)) }

// ExecStall returns a stall duration to insert mid-task (0 = none).
func (inj *Injector) ExecStall() time.Duration {
	if inj.hook(classStall, inj.specP(classStall)) {
		return inj.spec.Stall
	}
	return 0
}

// ResultThenDie reports whether the executor should crash right after a
// successful result delivery — the classic duplicate-provoking failure.
func (inj *Injector) ResultThenDie() bool { return inj.hook(classResultDie, inj.specP(classResultDie)) }

// specP returns the probability for a class (keeps hook call sites terse).
func (inj *Injector) specP(class int) float64 {
	if inj == nil {
		return 0
	}
	switch class {
	case classDupNotify:
		return inj.spec.DupNotifyP
	case classCrash:
		return inj.spec.CrashP
	case classStall:
		return inj.spec.StallP
	case classResultDie:
		return inj.spec.ResultDieP
	}
	return 0
}

// Counts returns how many faults of each class were injected so far.
func (inj *Injector) Counts() map[string]int64 {
	out := make(map[string]int64)
	if inj == nil {
		return out
	}
	for c := 1; c < nClasses; c++ {
		if n := inj.injected[c].Load(); n > 0 {
			out[classNames[c]] = n
		}
	}
	return out
}

// Summary renders the injected-fault counts as a stable one-liner.
func (inj *Injector) Summary() string {
	counts := inj.Counts()
	if len(counts) == 0 {
		return "none"
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, counts[n]))
	}
	return strings.Join(parts, " ")
}

// Uniform returns the n-th deterministic uniform draw in [0, 1) for a
// (seed, stream) pair — the same generator the injector rolls, exported so
// the chaos harness derives its kill schedule and workload from the same
// seed that drives the injectors.
func Uniform(seed, stream, n uint64) float64 {
	h := mix(mix(seed^mix(stream)) + n)
	return float64(h>>11) / (1 << 53)
}

// DeriveSeed deterministically derives a child seed from a master seed —
// the chaos harness gives each process its own decision universe while
// staying replayable from the one master seed.
func DeriveSeed(master uint64, child uint64) uint64 {
	s := mix(mix(master) ^ mix(child+0x51ed2701))
	if s == 0 {
		s = 1
	}
	return s
}
