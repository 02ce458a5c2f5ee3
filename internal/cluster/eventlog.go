package cluster

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/seglog"
	"repro/internal/wire"
)

// eventLog is a recorded history in its codec form: one AppendEventBinary
// record per event, in a block log. Nothing on the serving path reads the
// history back — Stats wants its length, an auditor a snapshot — so it is
// kept the way it is journaled and transferred, at a quarter of the decoded
// Event's size and with no pointer for the collector to trace. Event is the
// decoded view, built for whoever asks (encodedHistory.decode). The zero
// value is an empty log; one goroutine owns it.
type eventLog struct {
	recs seglog.Blocks
	enc  wire.Writer // a record is encoded here, then copied into recs
}

func (l *eventLog) len() int { return l.recs.Len() }

// append encodes ev at the end of the log and returns where its record
// starts and the log's copy of its payload: the tail of the record just
// written, non-nil whenever ev.Payload was (an empty message is still a
// message). That copy is the payload's one home — immutable, never moved,
// owned by the history — and the only slice of it anything downstream of
// the caller may be shown.
func (l *eventLog) append(ev Event) (payload []byte, at seglog.Pos, err error) {
	l.enc.Reset()
	if err := AppendEventBinary(&l.enc, ev); err != nil {
		return nil, at, err
	}
	rec, at := l.recs.Append(l.enc.Bytes())
	if len(rec) > seglog.BlockSize {
		l.enc = wire.Writer{} // rare, and too large a scratch to keep
	}
	if ev.Kind == model.ActDo || ev.Payload == nil {
		return nil, at, nil
	}
	return rec[len(rec)-len(ev.Payload):], at, nil
}

// update reads the send or receive record at `at` back as the update it
// recorded: the transfer layout of codec.go, with the payload a slice of the
// record itself. The record is the update's only home — the update log keeps
// positions, not copies — so the stamp is the recording node's own: for its
// own broadcast the send stamp, for a received one the receive stamp.
func (l *eventLog) update(at seglog.Pos) protoUpdate {
	var r wire.Reader
	r.Reset(l.recs.From(at))
	kind := model.Action(r.Uvarint())
	u := protoUpdate{Lamport: r.Uvarint(), Origin: model.ReplicaID(r.Uvarint()), Seq: r.Uvarint()}
	if r.Uvarint() == 1 {
		u.Payload = r.Bytes()
	}
	if r.Err() != nil || (kind != model.ActSend && kind != model.ActReceive) {
		panic(fmt.Sprintf("cluster: update log points at %+v, which holds no update record (kind %v, %v)", at, kind, r.Err()))
	}
	return u
}

// encodedHistory is a snapshot of a history whose events are still in the
// log's form: History's identity fields (Events unset) and the block table
// as it stood in one loop turn. Taking it costs the loop a copy of the
// table; framing it (appendTo) or decoding it (decode) happens on the
// asker's goroutine.
type encodedHistory struct {
	History
	blocks [][]byte
	n      int
}

func (l *eventLog) snapshot(id History) encodedHistory {
	h := encodedHistory{History: id}
	h.blocks, h.n = l.recs.Snapshot()
	return h
}

// appendTo appends the history's binary encoding (codec.go: identity, event
// count, events, shard identity). The events are the log's records, framed
// verbatim: what a history transfer carries is what the node holds.
func (h encodedHistory) appendTo(w *wire.Writer) {
	w.Uvarint(uint64(h.Node))
	w.Uvarint(uint64(h.N))
	w.String(h.Store)
	w.Uvarint(uint64(h.n))
	for _, b := range h.blocks {
		w.Raw(b)
	}
	w.Uvarint(uint64(h.Shard))
	w.Uvarint(uint64(h.Shards))
}

// decode builds the History value: a private copy, except that consecutive
// do events which saw the same frontier share one slice (see
// Event.Frontier).
func (h encodedHistory) decode() (History, error) {
	out := h.History
	if h.n == 0 {
		return out, nil
	}
	out.Events = make([]Event, 0, h.n)
	var r wire.Reader
	var frontier []uint64
	for _, b := range h.blocks {
		for r.Reset(b); r.Remaining() > 0; {
			ev, err := DecodeEventBinary(&r)
			if err != nil {
				return h.History, fmt.Errorf("cluster: r%d's recorded event %d: %w", h.Node, len(out.Events), err)
			}
			if ev.Frontier != nil {
				if frontier != nil && slices.Equal(ev.Frontier, frontier) {
					ev.Frontier = frontier
				} else {
					frontier = ev.Frontier
				}
			}
			out.Events = append(out.Events, ev)
		}
	}
	return out, nil
}
