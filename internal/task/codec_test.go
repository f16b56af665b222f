package task

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"falkon/internal/jsonwire"
)

// jsonRoundTrip decodes b with encoding/json into a fresh T.
func jsonRoundTrip[T any](t *testing.T, b []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("encoding/json rejects %s: %v", b, err)
	}
	return v
}

// codecCase checks v against encoding/json: AppendJSON's output decodes to
// what json.Marshal's does, and ParseJSON reads it back to the same value
// unless the value sits outside the fast subset (fast=false).
func codecCase[T any, P jsonwire.Decodable[T]](t *testing.T, v T, enc func(T, []byte) ([]byte, bool), fast bool) {
	t.Helper()
	ref, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonRoundTrip[T](t, ref)
	b, ok := enc(v, nil)
	if !ok {
		if fast {
			t.Fatalf("AppendJSON declined %+v", v)
		}
		return
	}
	if got := jsonRoundTrip[T](t, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendJSON %s decodes to %+v, want %+v", b, got, want)
	}
	var got T
	if jsonwire.Parse[T, P](b, &got) != fast {
		t.Fatalf("ParseJSON(%s) fast path = %v, want %v", b, !fast, fast)
	}
	if fast && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseJSON(%s) = %+v, want %+v", b, got, want)
	}
	if !fast && !reflect.DeepEqual(got, *new(T)) {
		t.Fatalf("declined ParseJSON(%s) left %+v behind", b, got)
	}
}

func TestTaskCodec(t *testing.T) {
	for _, c := range []struct {
		task Task
		fast bool
	}{
		{Task{}, true},
		{Sleep(1, 0), true},
		{Task{ID: math.MaxUint64, Engine: EngineFunc, Dir: "/tmp", Command: "f", Args: []string{"a", ""},
			Env: []string{"K=V"}, Duration: -time.Second, MaxRetries: math.MaxInt64, Stage: math.MinInt64, Trace: 1 << 63}, true},
		{Task{ID: 1, Args: []string{}, Env: []string{}}, true}, // omitted, decodes nil either way
		{Task{ID: 1, Command: "échō"}, false},
		{Task{ID: 1, Args: []string{`a"b`, "tab\t", "\xff"}}, false},
		{Task{ID: 1, IO: &IOSpec{ReadBytes: 1, Dataset: "d"}}, false},
	} {
		codecCase(t, c.task, Task.AppendJSON, c.fast)
	}
}

func TestResultCodec(t *testing.T) {
	for _, c := range []struct {
		res  Result
		fast bool
	}{
		{Result{}, true},
		{Result{ID: 3, ExitCode: -1, Stdout: "o", Stderr: "e", Err: "boom", ExecutorID: "exec-1", QueuedAt: 1,
			DispatchedAt: 2, StartedAt: 3, FinishedAt: math.MaxInt64, Attempts: 2, Trace: math.MaxUint64}, true},
		{Result{ID: 3, Stdout: "line\n"}, false},
		{Result{ID: 3, Err: "<html> & co"}, true}, // decodes like encoding/json's < escapes
	} {
		codecCase(t, c.res, Result.AppendJSON, c.fast)
	}
}
