package forward

import (
	"sync"
	"sync/atomic"

	"falkon/internal/task"
)

// pentry is one task the root owes a result for: the task itself (kept for
// replay if its leaf dies) and the leaf it is currently routed to.
type pentry struct {
	t    task.Task
	leaf int
}

// finst is one root-owned instance. The root hands out its own EPR space
// ("fwd-N") and creates downstream instances lazily, one per leaf the
// instance's work actually lands on; results funnel back through the root's
// buffer so Collect and push notification work even while leaves churn.
//
// Lock order: Forwarder.mu → finst.mu. Neither is ever held across a
// downstream call.
type finst struct {
	epr string

	// tenant is the creating client's tenant, forwarded verbatim on every
	// downstream instance so leaf dispatchers attribute and admit the
	// tree's work under the right identity. Immutable after creation.
	tenant string

	destroyed atomic.Bool

	mu     sync.Mutex
	peer   upstreamPeer // client connection for pushed results (nil = detached)
	notify bool

	// pending maps every task awaiting a result to its current leaf. It is
	// the only dedupe the root keeps: a result whose ID is not pending is no
	// longer owed and drops, and a resubmit of a delivered task re-runs it,
	// mirroring dispatcher instance semantics.
	pending map[task.ID]pentry

	// downEPR[i] is this instance's EPR on leaf i ("" until first use);
	// creating[i] is a barrier channel while a create call is in flight so
	// concurrent submits don't create duplicate downstream instances.
	downEPR  []string
	creating []chan struct{}

	// results buffers deliveries for poll-mode (or detached) clients;
	// waiters are blocked Collect calls.
	results []task.Result
	waiters []chan struct{}
}

// upstreamPeer is the slice of wsrpc.Peer the instance needs; an interface
// so tests can fake a push target.
type upstreamPeer interface {
	Notify(method string, arg any) error
}

func newFinst(leaves int) *finst {
	return &finst{
		pending:  make(map[task.ID]pentry),
		downEPR:  make([]string, leaves),
		creating: make([]chan struct{}, leaves),
	}
}

// addResult buffers r and wakes blocked Collect calls. Callers hold mu.
func (in *finst) addResult(r task.Result) {
	in.results = append(in.results, r)
	for _, w := range in.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	in.waiters = in.waiters[:0]
}

// takeResults removes up to max buffered results (0 = all). Callers hold mu.
func (in *finst) takeResults(max int) []task.Result {
	n := len(in.results)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]task.Result, n)
	copy(out, in.results)
	in.results = in.results[n:]
	if len(in.results) == 0 {
		in.results = nil
	}
	return out
}
