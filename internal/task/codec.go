package task

import (
	"math"
	"time"

	"falkon/internal/jsonwire"
)

// Canonical-layout codecs for the wire fast path (see package jsonwire):
// fields in declaration order with encoding/json's keys and omitempty
// rules. A task with IO set is left to encoding/json.

// AppendJSON appends t as encoding/json would; false when t.IO is set.
func (t Task) AppendJSON(dst []byte) ([]byte, bool) {
	if t.IO != nil {
		return dst, false
	}
	dst = jsonwire.AppendUint(append(dst, `{"id":`...), uint64(t.ID))
	dst = jsonwire.AppendUintField(dst, `,"engine":`, uint64(t.Engine))
	dst = jsonwire.AppendStringField(dst, `,"dir":`, t.Dir)
	dst = jsonwire.AppendStringField(dst, `,"command":`, t.Command)
	dst = jsonwire.AppendStringsField(dst, `,"args":`, t.Args)
	dst = jsonwire.AppendStringsField(dst, `,"env":`, t.Env)
	dst = jsonwire.AppendIntField(dst, `,"duration":`, int64(t.Duration))
	dst = jsonwire.AppendIntField(dst, `,"max_retries":`, int64(t.MaxRetries))
	dst = jsonwire.AppendIntField(dst, `,"stage":`, int64(t.Stage))
	dst = jsonwire.AppendUintField(dst, `,"trace":`, t.Trace)
	return append(dst, '}'), true
}

// DecodeJSON reads one task in canonical layout from d.
func (t *Task) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"id":`)
	t.ID = ID(d.Uint("", math.MaxUint64))
	t.Engine = Engine(d.Uint(`,"engine":`, math.MaxUint8))
	t.Dir = d.Str(`,"dir":`)
	t.Command = d.Str(`,"command":`)
	t.Args = d.Strings(`,"args":`)
	t.Env = d.Strings(`,"env":`)
	t.Duration = time.Duration(d.Int64(`,"duration":`))
	t.MaxRetries = d.Int(`,"max_retries":`)
	t.Stage = d.Int(`,"stage":`)
	t.Trace = d.Uint(`,"trace":`, math.MaxUint64)
	d.Expect("}")
}

// AppendJSON appends r as encoding/json would.
func (r Result) AppendJSON(dst []byte) ([]byte, bool) {
	dst = jsonwire.AppendUint(append(dst, `{"id":`...), uint64(r.ID))
	dst = jsonwire.AppendIntField(dst, `,"exit_code":`, int64(r.ExitCode))
	dst = jsonwire.AppendStringField(dst, `,"stdout":`, r.Stdout)
	dst = jsonwire.AppendStringField(dst, `,"stderr":`, r.Stderr)
	dst = jsonwire.AppendStringField(dst, `,"err":`, r.Err)
	dst = jsonwire.AppendStringField(dst, `,"executor":`, r.ExecutorID)
	dst = jsonwire.AppendIntField(dst, `,"queued_at":`, int64(r.QueuedAt))
	dst = jsonwire.AppendIntField(dst, `,"dispatched_at":`, int64(r.DispatchedAt))
	dst = jsonwire.AppendIntField(dst, `,"started_at":`, int64(r.StartedAt))
	dst = jsonwire.AppendIntField(dst, `,"finished_at":`, int64(r.FinishedAt))
	dst = jsonwire.AppendIntField(dst, `,"attempts":`, int64(r.Attempts))
	dst = jsonwire.AppendUintField(dst, `,"trace":`, r.Trace)
	return append(dst, '}'), true
}

// DecodeJSON reads one result in canonical layout from d.
func (r *Result) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"id":`)
	r.ID = ID(d.Uint("", math.MaxUint64))
	r.ExitCode = d.Int(`,"exit_code":`)
	r.Stdout = d.Str(`,"stdout":`)
	r.Stderr = d.Str(`,"stderr":`)
	r.Err = d.Str(`,"err":`)
	r.ExecutorID = d.Str(`,"executor":`)
	r.QueuedAt = time.Duration(d.Int64(`,"queued_at":`))
	r.DispatchedAt = time.Duration(d.Int64(`,"dispatched_at":`))
	r.StartedAt = time.Duration(d.Int64(`,"started_at":`))
	r.FinishedAt = time.Duration(d.Int64(`,"finished_at":`))
	r.Attempts = d.Int(`,"attempts":`)
	r.Trace = d.Uint(`,"trace":`, math.MaxUint64)
	d.Expect("}")
}
