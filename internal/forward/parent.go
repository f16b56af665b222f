package forward

import (
	"encoding/json"

	"falkon/internal/fproto"
	"falkon/internal/wsrpc"
)

// handleAttachParent registers the peer as a tree parent — another
// forwarder one tier up — and returns the attach-time capacity snapshot,
// exactly as a dispatcher does.
func (f *Forwarder) handleAttachParent(p *wsrpc.Peer, _ json.RawMessage) (any, error) {
	f.mu.Lock()
	f.parents[p.ID()] = p
	f.nParents.Store(int32(len(f.parents)))
	h := f.capacityLocked()
	f.mu.Unlock()
	f.logf("forward: parent attached from %s", p.RemoteAddr())
	return h, nil
}

// capacityLocked sums the latest hints of the up children into this
// forwarder's own report: tasks routed but not yet reflected in a child's
// report count as queued there. Callers hold f.mu.
func (f *Forwarder) capacityLocked() fproto.CapacityHint {
	f.capSeq++
	h := fproto.CapacityHint{Seq: f.capSeq, Epoch: f.epoch}
	for _, l := range f.leaves {
		if !l.up {
			continue
		}
		h.Queued += l.cap.Queued + l.inflight
		h.Outstanding += l.cap.Outstanding
		h.IdleSlots += l.cap.IdleSlots
		h.Executors += l.cap.Executors
	}
	return h
}

// pushCapacity re-reports the summed capacity to every attached parent.
// Callers invoke it after the routing view changes — a child hint absorbed,
// a child down or back up. Children already throttle their own pushes, so
// this adds no second throttle.
func (f *Forwarder) pushCapacity() {
	if f.nParents.Load() == 0 {
		return
	}
	f.mu.Lock()
	h := f.capacityLocked()
	ps := make([]*wsrpc.Peer, 0, len(f.parents))
	for _, p := range f.parents {
		ps = append(ps, p)
	}
	f.mu.Unlock()
	for _, p := range ps {
		// A failed push means the parent's connection is going away;
		// onUpstreamDisconnect drops it from the set.
		_ = p.Notify(fproto.NotifyCapacity, h)
	}
}
