package sim

import (
	"repro/internal/livecheck"
	"repro/internal/model"
)

// tapState adapts the simulator's execution to the livecheck event stream:
// a global step counter standing in for Lamport time (the simulator is
// single-threaded, so the recording order is a linearization with receive >
// send), and the per-origin broadcast sequence numbers the TCP engine mints
// on the wire.
type tapState struct {
	fn      func(livecheck.Event)
	lamport uint64
	sendSeq []uint64
	msgSeq  map[int]uint64 // execution msgID -> (from, seq) broadcast seq
}

// SetTap installs a streaming observer: every do/send/receive the cluster
// records is also emitted as a livecheck.Event, so simulated runs are
// checked by the same code as TCP runs. Install before driving any events —
// sequence numbering starts at the install point. A nil fn detaches.
func (c *Cluster) SetTap(fn func(livecheck.Event)) {
	if fn == nil {
		c.tap = nil
		return
	}
	c.tap = &tapState{
		fn:      fn,
		sendSeq: make([]uint64, c.n),
		msgSeq:  make(map[int]uint64),
	}
}

// emit stamps ev with the next step and hands it to the observer.
func (t *tapState) emit(ev livecheck.Event) {
	t.lamport++
	ev.Lamport = t.lamport
	t.fn(ev)
}

// send emits the send event for replica r's broadcast msgID, minting the
// per-origin sequence number message identity needs; receive looks it up.
func (t *tapState) send(r model.ReplicaID, msgID int) {
	t.sendSeq[r]++
	t.msgSeq[msgID] = t.sendSeq[r]
	t.emit(livecheck.Event{Node: r, Kind: model.ActSend, Origin: r, Seq: t.sendSeq[r]})
}
