package fproto

import (
	"time"

	"falkon/internal/jsonwire"
	"falkon/internal/task"
)

// Canonical-layout codecs for the four bodies every task crosses — Submit,
// Deliver (request and reply) and the Results push — and the Assignment and
// TaggedResult they carry. wsrpc.MarshalBody and wsrpc.UnmarshalBody use
// them and fall back to encoding/json for anything outside the fast subset
// (see package jsonwire).

// AppendJSON appends r as encoding/json would.
func (r SubmitRequest) AppendJSON(dst []byte) ([]byte, bool) {
	dst = jsonwire.AppendString(append(dst, `{"epr":`...), r.EPR)
	dst, ok := jsonwire.AppendList(append(dst, `,"tasks":`...), r.Tasks)
	return append(dst, '}'), ok
}

// DecodeJSON reads r in canonical layout from d.
func (r *SubmitRequest) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"epr":`)
	r.EPR = d.Str("")
	r.Tasks = jsonwire.DecodeList[task.Task](d, `,"tasks":`)
	d.Expect("}")
}

// ParseJSON decodes b into r when b is in the fast subset.
func (r *SubmitRequest) ParseJSON(b []byte) bool { return jsonwire.Parse(b, r) }

// AppendJSON appends a as encoding/json would.
func (a Assignment) AppendJSON(dst []byte) ([]byte, bool) {
	dst = jsonwire.AppendString(append(dst, `{"epr":`...), a.EPR)
	dst, ok := a.Task.AppendJSON(append(dst, `,"task":`...))
	dst = jsonwire.AppendBoolField(dst, `,"cache_hit":`, a.CacheHit)
	return append(dst, '}'), ok
}

// DecodeJSON reads a in canonical layout from d.
func (a *Assignment) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"epr":`)
	a.EPR = d.Str("")
	d.Expect(`,"task":`)
	a.Task.DecodeJSON(d)
	a.CacheHit = d.Bool(`,"cache_hit":`)
	d.Expect("}")
}

// AppendJSON appends r as encoding/json would.
func (r DeliverReply) AppendJSON(dst []byte) ([]byte, bool) {
	if len(r.Assignments) == 0 {
		return append(dst, "{}"...), true
	}
	dst, ok := jsonwire.AppendList(append(dst, `{"assignments":`...), r.Assignments)
	return append(dst, '}'), ok
}

// DecodeJSON reads r in canonical layout from d.
func (r *DeliverReply) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect("{")
	r.Assignments = jsonwire.DecodeList[Assignment](d, `"assignments":`)
	d.Expect("}")
}

// ParseJSON decodes b into r when b is in the fast subset.
func (r *DeliverReply) ParseJSON(b []byte) bool { return jsonwire.Parse(b, r) }

// AppendJSON appends r as encoding/json would.
func (r TaggedResult) AppendJSON(dst []byte) ([]byte, bool) {
	dst = jsonwire.AppendString(append(dst, `{"epr":`...), r.EPR)
	dst, _ = r.Result.AppendJSON(append(dst, `,"result":`...))
	dst = jsonwire.AppendInt(append(dst, `,"run_dur":`...), int64(r.RunDur))
	dst = jsonwire.AppendIntField(dst, `,"overhead_dur":`, int64(r.OverheadDur))
	return append(dst, '}'), true
}

// DecodeJSON reads r in canonical layout from d.
func (r *TaggedResult) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"epr":`)
	r.EPR = d.Str("")
	d.Expect(`,"result":`)
	r.Result.DecodeJSON(d)
	r.RunDur = time.Duration(d.Int64(`,"run_dur":`))
	r.OverheadDur = time.Duration(d.Int64(`,"overhead_dur":`))
	d.Expect("}")
}

// AppendJSON appends r as encoding/json would.
func (r DeliverRequest) AppendJSON(dst []byte) ([]byte, bool) {
	dst = jsonwire.AppendString(append(dst, `{"executor_id":`...), r.ExecutorID)
	if len(r.Results) > 0 {
		dst, _ = jsonwire.AppendList(append(dst, `,"results":`...), r.Results)
	}
	dst = jsonwire.AppendBoolField(dst, `,"want_work":`, r.WantWork)
	dst = jsonwire.AppendIntField(dst, `,"max_new":`, int64(r.MaxNew))
	return append(dst, '}'), true
}

// DecodeJSON reads r in canonical layout from d.
func (r *DeliverRequest) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"executor_id":`)
	r.ExecutorID = d.Str("")
	r.Results = jsonwire.DecodeList[TaggedResult](d, `,"results":`)
	r.WantWork = d.Bool(`,"want_work":`)
	r.MaxNew = d.Int(`,"max_new":`)
	d.Expect("}")
}

// ParseJSON decodes b into r when b is in the fast subset.
func (r *DeliverRequest) ParseJSON(b []byte) bool { return jsonwire.Parse(b, r) }

// AppendJSON appends n as encoding/json would.
func (n ResultsNotify) AppendJSON(dst []byte) ([]byte, bool) {
	dst = jsonwire.AppendString(append(dst, `{"epr":`...), n.EPR)
	dst, _ = jsonwire.AppendList(append(dst, `,"results":`...), n.Results)
	return append(dst, '}'), true
}

// DecodeJSON reads n in canonical layout from d.
func (n *ResultsNotify) DecodeJSON(d *jsonwire.Decoder) {
	d.Expect(`{"epr":`)
	n.EPR = d.Str("")
	n.Results = jsonwire.DecodeList[task.Result](d, `,"results":`)
	d.Expect("}")
}

// ParseJSON decodes b into n when b is in the fast subset.
func (n *ResultsNotify) ParseJSON(b []byte) bool { return jsonwire.Parse(b, n) }
