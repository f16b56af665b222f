package fproto

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"falkon/internal/jsonwire"
	"falkon/internal/task"
)

// covered lists every type with a canonical-layout codec, as pointers to
// zero values.
func covered() []any {
	return []any{&SubmitRequest{}, &DeliverReply{}, &DeliverRequest{}, &ResultsNotify{},
		&Assignment{}, &TaggedResult{}, &task.Task{}, &task.Result{}}
}

// parse runs the canonical-layout parser of ptr's type on b, as
// ParseJSON does for the top-level bodies.
func parse(ptr any, b []byte) bool {
	switch v := ptr.(type) {
	case *SubmitRequest:
		return jsonwire.Parse(b, v)
	case *DeliverReply:
		return jsonwire.Parse(b, v)
	case *DeliverRequest:
		return jsonwire.Parse(b, v)
	case *ResultsNotify:
		return jsonwire.Parse(b, v)
	case *Assignment:
		return jsonwire.Parse(b, v)
	case *TaggedResult:
		return jsonwire.Parse(b, v)
	case *task.Task:
		return jsonwire.Parse(b, v)
	case *task.Result:
		return jsonwire.Parse(b, v)
	}
	panic(fmt.Sprintf("parse: %T has no codec", ptr))
}

// fresh returns a pointer to a new zero value of ptr's element type.
func fresh(ptr any) any { return reflect.New(reflect.TypeOf(ptr).Elem()).Interface() }

// refDecode decodes b with encoding/json into a fresh value like ptr's.
func refDecode(t *testing.T, ptr any, b []byte) any {
	t.Helper()
	out := fresh(ptr)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("encoding/json rejects %s: %v", b, err)
	}
	return out
}

// checkValue holds ptr's value to the decode-equivalence bar: AppendJSON's
// output decodes (with encoding/json) to what json.Marshal's does, and
// ParseJSON, whenever it accepts that output, agrees. It reports which
// directions took the fast path.
func checkValue(t *testing.T, ptr any) (encFast, decFast bool) {
	t.Helper()
	ref, err := json.Marshal(ptr)
	if err != nil {
		t.Fatal(err)
	}
	want := refDecode(t, ptr, ref)
	b, ok := ptr.(jsonwire.Appender).AppendJSON(nil)
	if !ok {
		return false, false
	}
	if got := refDecode(t, ptr, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendJSON %s decodes to %+v; json.Marshal %s decodes to %+v", b, got, ref, want)
	}
	fast := fresh(ptr)
	if !parse(fast, b) {
		return true, false
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("ParseJSON %s = %+v, encoding/json = %+v", b, fast, want)
	}
	return true, true
}

// checkBytes holds the parser to the bar on arbitrary input: wherever
// ParseJSON accepts b, json.Unmarshal accepts it too and yields a
// reflect.DeepEqual value, nil-versus-empty slices included; and the parsed
// value re-encodes decode-equivalently.
func checkBytes(t *testing.T, ptr any, b []byte) {
	t.Helper()
	fast := fresh(ptr)
	if !parse(fast, b) {
		return
	}
	ref := fresh(ptr)
	if err := json.Unmarshal(b, ref); err != nil {
		t.Fatalf("ParseJSON accepts %q, encoding/json rejects it: %v", b, err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("on %q ParseJSON = %+v, encoding/json = %+v", b, fast, ref)
	}
	checkValue(t, fast)
}

var (
	plainStrings = []string{"", "x", "falkon-instance-7", "exec-0", "sleep", "a b/c.d-_~", "0", "null", "{}"}
	oddStrings   = []string{`q"uote`, `back\slash`, "tab\t", "nl\n", "\x01", "<&>", "é", "\xff", " ", "\x7f"}
	ints         = []int64{0, 1, -1, 9, 10, 255, 256, math.MaxInt32 + 1, math.MaxInt64, math.MinInt64}
	uints        = []uint64{0, 1, 9, 10, 255, 256, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64}
)

// fill sets v to a random value. plain keeps it inside the fast subset
// (plain strings, no IO) so both paths get exercised.
func fill(rng *rand.Rand, v reflect.Value, plain bool) {
	switch v.Kind() {
	case reflect.String:
		if plain || rng.Intn(3) > 0 {
			v.SetString(plainStrings[rng.Intn(len(plainStrings))])
		} else {
			v.SetString(oddStrings[rng.Intn(len(oddStrings))])
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		n := ints[rng.Intn(len(ints))]
		if rng.Intn(2) == 0 {
			n = rng.Int63() >> rng.Intn(63)
		}
		if v.OverflowInt(n) {
			n = int64(int32(n))
		}
		v.SetInt(n)
	case reflect.Uint8, reflect.Uint64:
		n := uints[rng.Intn(len(uints))]
		if rng.Intn(2) == 0 {
			n = rng.Uint64() >> rng.Intn(64)
		}
		if v.OverflowUint(n) {
			n &= 0xff
		}
		v.SetUint(n)
	case reflect.Slice:
		n := rng.Intn(4) - 1 // -1 leaves nil
		if n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n; i++ {
			fill(rng, v.Index(i), plain)
		}
	case reflect.Pointer:
		if !plain && rng.Intn(3) == 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(rng, v.Elem(), plain)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(rng, v.Field(i), plain)
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// Randomized differential test against encoding/json for every covered
// type: decode-equivalent encoding both ways, and the fast path taken for
// every value inside the fast subset.
func TestBodyCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, proto := range covered() {
		typ := reflect.TypeOf(proto).Elem()
		t.Run(typ.Name(), func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				ptr := reflect.New(typ)
				plain := i%2 == 0
				fill(rng, ptr.Elem(), plain)
				encFast, decFast := checkValue(t, ptr.Interface())
				if plain && !(encFast && decFast) {
					t.Fatalf("fast-subset value missed the fast path (encode %v, parse %v): %+v",
						encFast, decFast, ptr.Elem().Interface())
				}
			}
		})
	}
}

// Hand-picked inputs at the edges of the fast subset: the parser must
// either bail or agree with encoding/json, never diverge.
func TestBodyCodecEdgeInputs(t *testing.T) {
	inputs := []string{
		`}`, `{}`, `{"epr":"a","tasks":null}`, `{"epr":"a","tasks":[]}`, `{"epr":"a","tasks":[{"id":0}]}`,
		`{"epr":"a","tasks":[{"id":01}]}`, `{"epr":"a","tasks":[{"id":-0}]}`, `{"epr":"a","tasks":[{"id":1.0}]}`,
		`{"epr":"a","tasks":[{"id":1e3}]}`, `{"epr":"a","tasks":[{"id":18446744073709551615}]}`,
		`{"epr":"a","tasks":[{"id":18446744073709551616}]}`, `{"epr":"a","tasks":[{"id":1,"engine":256}]}`,
		`{"epr":"a","tasks":[{"id":1,"args":[]}]}`, `{"epr":"a","tasks":[{"id":1,"args":null}]}`,
		`{"epr":"a","tasks":[{"id":1,"duration":-9223372036854775808}]}`, `{"epr":"a","tasks":[{"id":1},]}`,
		`{"epr":"a","tasks":[,{"id":1}]}`, `{"epr":"a" ,"tasks":[]}`, `{"EPR":"a","tasks":[]}`,
		`{"epr":"a","tasks":[],"x":1}`, `{"tasks":[],"epr":"a"}`, `{"epr":"ab","tasks":[]}`,
		`{"epr":"é","tasks":[]}`, `{"epr":"a","tasks":[]} `, `{"epr":"a","tasks":[]}}`,
		`{"executor_id":"e","want_work":true,"max_new":2}`, `{"executor_id":"e","want_work":tru}`,
		`{"executor_id":"e","results":[{"epr":"a","result":{"id":1},"run_dur":0}]}`,
		`{"executor_id":"e","max_new":9223372036854775807}`, `{"assignments":[]}`, `{"assignments":null}`,
		`{"assignments":[{"epr":"a","task":{"id":1},"cache_hit":false}]}`, `{"id":1,"exit_code":-1}`,
	}
	for _, in := range inputs {
		for _, proto := range covered() {
			checkBytes(t, proto, []byte(in))
		}
	}
}

// canonicalBodies returns one canonical encoding per covered type, in the
// shapes the per-task paths carry.
func canonicalBodies() [][]byte {
	tk := task.Task{ID: 42, Engine: task.EngineExec, Dir: "/w", Command: "echo", Args: []string{"a", "b"},
		Env: []string{"K=V"}, Duration: 1500 * time.Millisecond, MaxRetries: 3, Stage: 2, Trace: math.MaxUint64}
	r := task.Result{ID: 42, ExitCode: 1, Stdout: "out", Stderr: "err", Err: "boom", ExecutorID: "exec-1",
		QueuedAt: 1, DispatchedAt: 20, StartedAt: 300, FinishedAt: 4000, Attempts: 2, Trace: 1 << 63}
	var out [][]byte
	for _, v := range []jsonwire.Appender{
		SubmitRequest{EPR: "falkon-instance-1", Tasks: []task.Task{tk, task.Sleep(43, 0)}},
		DeliverReply{Assignments: []Assignment{{EPR: "falkon-instance-1", Task: tk, CacheHit: true}}},
		DeliverRequest{ExecutorID: "exec-1", Results: []TaggedResult{{EPR: "falkon-instance-1", Result: r,
			RunDur: time.Second, OverheadDur: time.Millisecond}}, WantWork: true, MaxNew: 4},
		ResultsNotify{EPR: "falkon-instance-1", Results: []task.Result{r, {ID: 7}}},
		tk, r,
	} {
		b, ok := v.AppendJSON(nil)
		if !ok {
			panic("canonical body left the fast subset")
		}
		out = append(out, b)
	}
	return out
}

// FuzzBodyCodec holds ParseJSON to encoding/json on arbitrary bytes, for
// every covered type. The seed corpus is each canonical body plus every
// single-byte deletion of it — the near misses a strict parser must bail on.
func FuzzBodyCodec(f *testing.F) {
	for _, b := range canonicalBodies() {
		f.Add(b)
		for i := range b {
			f.Add(append(append([]byte(nil), b[:i]...), b[i+1:]...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, proto := range covered() {
			checkBytes(t, proto, b)
		}
	})
}

// leaf sets one scalar field somewhere inside a covered value.
type leaf struct {
	path string
	set  func(v reflect.Value)
}

// leaves lists every scalar field reachable from typ — through nested
// structs and slices of them — as a setter that makes it nonzero.
func leaves(typ reflect.Type, prefix string) []leaf {
	var out []leaf
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		path := prefix + f.Name
		switch {
		case f.Type.Kind() == reflect.Struct:
			for _, sub := range leaves(f.Type, path+".") {
				out = append(out, leaf{sub.path, func(v reflect.Value) { sub.set(v.Field(i)) }})
			}
		case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
			for _, sub := range leaves(f.Type.Elem(), path+"[0].") {
				out = append(out, leaf{sub.path, func(v reflect.Value) {
					s := reflect.MakeSlice(f.Type, 1, 1)
					sub.set(s.Index(0))
					v.Field(i).Set(s)
				}})
			}
		default:
			out = append(out, leaf{path, func(v reflect.Value) { setNonzero(v.Field(i)) }})
		}
	}
	return out
}

func setNonzero(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(7)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		setNonzero(s.Index(0))
		v.Set(s)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		panic("setNonzero: unhandled kind " + v.Kind().String())
	}
}

// Adding a field to a covered struct without teaching the codec about it
// must fail here: each field alone has to survive AppendJSON and ParseJSON.
// Task.IO is the one field deliberately left to encoding/json.
func TestBodyCodecFieldCoverage(t *testing.T) {
	for _, proto := range covered() {
		typ := reflect.TypeOf(proto).Elem()
		for _, l := range leaves(typ, typ.Name()+".") {
			ptr := reflect.New(typ)
			l.set(ptr.Elem())
			encFast, decFast := checkValue(t, ptr.Interface())
			if strings.HasSuffix(l.path, ".IO") {
				if encFast {
					t.Errorf("%s: a task with IO should fall back to encoding/json", l.path)
				}
				continue
			}
			if !encFast || !decFast {
				t.Errorf("%s: field not covered by the codec (encode fast %v, parse fast %v)", l.path, encFast, decFast)
			}
		}
	}
}

// The benchmark's shape — sleep-0 tasks with full 64-bit trace ids — must
// take the fast path on all four bodies, both ways.
func TestSleepTasksTakeFastPath(t *testing.T) {
	const epr = "falkon-instance-1"
	rng := rand.New(rand.NewSource(7))
	var tasks []task.Task
	var as []Assignment
	var tagged []TaggedResult
	var results []task.Result
	for i := 1; i <= 50; i++ {
		tk := task.Sleep(task.ID(i), 0)
		tk.Trace = rng.Uint64() | 1<<63
		tasks = append(tasks, tk)
		as = append(as, Assignment{EPR: epr, Task: tk})
		tagged = append(tagged, TaggedResult{EPR: epr, Result: task.Result{ID: tk.ID}, RunDur: 1234, OverheadDur: 56})
		results = append(results, task.Result{ID: tk.ID, ExecutorID: "exec-3", QueuedAt: 10, DispatchedAt: 20,
			StartedAt: 30, FinishedAt: 40, Attempts: 1, Trace: tk.Trace})
	}
	for _, body := range []any{
		&SubmitRequest{EPR: epr, Tasks: tasks},
		&DeliverReply{Assignments: as},
		&DeliverRequest{ExecutorID: "exec-3", Results: tagged, WantWork: true, MaxNew: 1},
		&ResultsNotify{EPR: epr, Results: results},
	} {
		b, ok := body.(jsonwire.Appender).AppendJSON(nil)
		if !ok {
			t.Fatalf("%T: encode fell back to encoding/json", body)
		}
		got := fresh(body)
		if !parse(got, b) {
			t.Fatalf("%T: parse fell back to encoding/json on %s", body, b)
		}
		if !reflect.DeepEqual(got, body) {
			t.Fatalf("%T: round trip = %+v, want %+v", body, got, body)
		}
	}
}
