//go:build !race

package fproto

import (
	"bytes"
	"testing"

	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// Encode and parse of a one-result DeliverRequest — the executor's
// per-task upload — through the wsrpc seam stay on the fast path, checked
// by hard counters rather than timings: a silent fall back to
// encoding/json's reflection fails them deterministically.
func TestDeliverRequestCodecAllocs(t *testing.T) {
	req := DeliverRequest{
		ExecutorID: "exec<3>",
		Results: []TaggedResult{{EPR: "falkon-instance-1", RunDur: 1234,
			Result: task.Result{ID: 99, Trace: 1<<63 | 12345}}},
		WantWork: true,
		MaxNew:   1,
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() { buf, _ = req.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a sized buffer = %v allocs, want 0", n)
	}
	// encoding/json pools its buffers, so the seam's encode is told apart
	// by bytes instead: only the fast encoder leaves '<' unescaped.
	body, err := wsrpc.MarshalBody(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf) {
		t.Fatalf("MarshalBody fell back to encoding/json: %s", body)
	}
	// The target, the decoder, the results slice, and the two strings the
	// body carries; encoding/json takes 12.
	if n := testing.AllocsPerRun(200, func() {
		var got DeliverRequest
		if err := wsrpc.UnmarshalBody(body, &got); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("UnmarshalBody(DeliverRequest) = %v allocs, want <= 5", n)
	}
}
