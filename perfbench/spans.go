package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// span is one timed interval on the bench clock. Spans of one task share
// its trace ID (Task.Trace); a name's slash-separated prefix names its
// parent span. Replay spans carry trace 0.
type span struct {
	trace      uint64
	name       string
	start, end int64
}

// taskSpans turns one task's record into its span tree. The task span runs
// from due time to the result being read, and three children partition it
// exactly: due_send (the generator's lateness), submit (the Submit call,
// up to the earlier of its return and the result read) and post_ack. The
// Result stamps split post_ack into five more children, clamped into it in
// order, so they partition it exactly too: route (until the dispatcher
// queued the task, non-zero only when an ack came before that), queue,
// pickup, run and deliver.
func taskSpans(trace uint64, r *taskRec, emit func(span)) {
	a := min(r.ack, r.read)
	emit(span{trace, "task", r.due, r.read})
	emit(span{trace, "task/due_send", r.due, r.send})
	emit(span{trace, "task/submit", r.send, a})
	emit(span{trace, "task/post_ack", a, r.read})
	names := [...]string{"route", "queue", "pickup", "run", "deliver"}
	marks := [...]int64{r.q, r.d, r.s, r.f, r.read}
	prev := a
	for i, name := range names {
		next := min(max(marks[i], prev), r.read)
		emit(span{trace, "task/post_ack/" + name, prev, next})
		prev = next
	}
}

// writeSpans writes the traced run's spans, one JSON object per line,
// gzipped, under .bench_build/perfbench/traces in the checkout.
func writeSpans(cfg runConfig, rep *report) error {
	dir := filepath.Join(cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	var line []byte
	rep.eachSpan(func(s span) {
		line = append(line[:0], `{"trace":`...)
		line = strconv.AppendUint(line, s.trace, 10)
		line = append(line, `,"name":"`...)
		line = append(line, s.name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		bw.Write(line) // a failed write is reported by Flush below
	})
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
