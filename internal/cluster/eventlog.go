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
//
// A write at its origin is a do record and the send record of the message it
// made pending, which holds the written value again. The send leaves it out
// (codec.go's short form) when the do is the record just before it in the
// same block, so the origin keeps each value once, in the do record's head,
// whose views the store holds.
type eventLog struct {
	recs seglog.Blocks
	enc  wire.Writer // a record is encoded here, then copied into recs
	open bool        // openDo opened a do record, which append closes
	// openArg is the open do record's Op.Arg, a view of its head.
	openArg []byte
	// doArg, when non-nil, is the Op.Arg of the last record, a do starting at
	// doAt, as a view of the log: what a send appended next may leave out.
	doAt  seglog.Pos
	doArg []byte
}

func (l *eventLog) len() int { return l.recs.Len() }

// openDo opens the record of a do event: it writes the record's head — kind,
// lamport, obj and op, the layout's first fields — into the log, ahead of the
// rest, and returns the head's own views of obj and op.Arg. They are the
// history's bytes, immutable for as long as anything holds them, so the
// caller hands them on in place of obj and op.Arg, which may be lent (a
// request's views of its frame, see decodeRequest). append closes the record;
// until then the log counts no record of it. width is the frontier's length:
// the head is placed with room for the tail of a write behind it.
func (l *eventLog) openDo(lamport uint64, obj model.ObjectID, op model.Operation, width int) (model.ObjectID, model.Operation) {
	l.enc.Reset()
	appendDoHead(&l.enc, lamport, obj, op)
	l.open = true
	obj, op, l.openArg = doHeadViews(l.recs.Open(l.enc.Bytes(), doTailMax(width)))
	return obj, op
}

// doHeadViews decodes a do record's object and op from its head (or the whole
// record), the object and argument as views of it, and returns the argument's
// bytes, a slice of it, as well: the caller's bytes must be history bytes,
// which nothing writes again (seglog.Blocks).
func doHeadViews(head []byte) (obj model.ObjectID, op model.Operation, arg []byte) {
	var r wire.Reader
	r.Reset(head)
	r.Uvarint() // kind
	r.Uvarint() // lamport
	obj = model.ObjectID(r.StringView())
	op.Kind = model.OpKind(r.Uvarint())
	op.Arg = model.Value(r.StringView())
	end := len(head) - r.Remaining()
	arg = head[end-len(op.Arg) : end : end]
	op.Delta = r.Varint()
	return obj, op, arg
}

// append encodes ev at the end of the log and returns the log's copy of
// the record, where it starts, and the record's copy of the payload when it
// holds it whole: its tail, non-nil whenever ev.Payload was (an empty
// message is still a message). Both copies are the event's one home —
// immutable, never moved, owned by the history — and the only slices of it
// anything downstream of the caller may be shown: the journal is staged the
// record, the store and the update log the payload. When openDo opened a do
// record — with ev's lamport, object and op — append closes it with ev's
// response, dot and frontier; a send that the do record just before it lets
// leave out its argument is written in short form, with no payload of its
// own to return; any other event is written whole.
func (l *eventLog) append(ev Event) (rec, payload []byte, at seglog.Pos, err error) {
	l.enc.Reset()
	doAt, doArg := l.doAt, l.doArg
	l.doArg = nil
	switch {
	case l.open && ev.Kind == model.ActDo:
		appendDoTail(&l.enc, ev)
		rec, at = l.recs.Close(l.enc.Bytes())
		l.open = false
		l.noteDo(at, l.openArg)
	case ev.Kind == model.ActSend && doArg != nil && l.encodeShort(ev, doAt, doArg):
		rec, at = l.recs.Append(l.enc.Bytes())
		return rec, nil, at, nil
	default:
		if err := AppendEventBinary(&l.enc, ev); err != nil {
			return nil, nil, at, err
		}
		rec, at = l.recs.Append(l.enc.Bytes())
		if ev.Kind == model.ActDo {
			_, _, arg := doHeadViews(rec)
			l.noteDo(at, arg)
		}
	}
	if len(rec) > seglog.BlockSize {
		l.enc = wire.Writer{} // rare, and too large a scratch to keep
	}
	if ev.Kind == model.ActDo || ev.Payload == nil {
		return rec, nil, at, nil
	}
	return rec, rec[len(rec)-len(ev.Payload):], at, nil
}

// noteDo remembers the do record just appended at `at`, whose argument is
// arg, for a send appended next to refer to — when there is an argument to
// leave out.
func (l *eventLog) noteDo(at seglog.Pos, arg []byte) {
	if len(arg) > 0 {
		l.doAt, l.doArg = at, arg
	}
}

// encodeShort encodes send event ev into l.enc in short form, leaving out
// arg, the argument of the do record at doAt, the record before it. It does,
// and reports so, only when ev's payload holds arg, the short form is the
// shorter, and it lands in the do record's block, so that each block stays
// readable on its own.
func (l *eventLog) encodeShort(ev Event, doAt seglog.Pos, arg []byte) bool {
	end, spare := l.recs.End()
	back, ok := end.Distance(doAt)
	if !ok || !appendShortSend(&l.enc, ev, arg, back) {
		return false
	}
	if l.enc.Len() > spare {
		l.enc.Reset()
		return false
	}
	return true
}

// update reads the send or receive record at `at` back as the update it
// recorded: the transfer layout of codec.go, with the payload a slice of the
// record itself. The record is the update's only home — the update log keeps
// positions, not copies — so the stamp is the recording node's own: for its
// own broadcast the send stamp, for a received one the receive stamp. A send
// in short form holds its payload in two pieces around the argument of the
// do record before it, which the payload is rebuilt from at the end of
// *buf: the caller's scratch, which the payload aliases until the caller
// writes it again.
func (l *eventLog) update(at seglog.Pos, buf *[]byte) protoUpdate {
	var r wire.Reader
	r.Reset(l.recs.From(at))
	kind := r.Uvarint()
	u := protoUpdate{Lamport: r.Uvarint()}
	ok := false
	switch kind {
	case uint64(model.ActSend), uint64(model.ActReceive):
		u.Origin = model.ReplicaID(r.Uvarint())
		u.Seq = r.Uvarint()
		if r.Uvarint() == 1 {
			u.Payload = r.Bytes()
		}
		ok = r.Err() == nil
	case shortSend:
		var back int
		var before, after []byte
		if back, before, after, ok = readShortSend(&r, &u); ok {
			_, _, arg := doHeadViews(l.recs.From(at.Back(back)))
			from := len(*buf)
			*buf = append(append(append(*buf, before...), arg...), after...)
			u.Payload = (*buf)[from:len(*buf):len(*buf)]
		}
	}
	if !ok {
		panic(fmt.Sprintf("cluster: update log points at %+v, which holds no update record (kind %v, %v)", at, kind, r.Err()))
	}
	return u
}

// encodedHistory is a snapshot of a history whose events are still in the
// log's form: History's identity fields (Events unset) and the block table
// as it stood in one turn. Taking it costs the turn a copy of the table;
// framing it (appendTo) or decoding it (decode) happens after the turn.
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
	var dec EventDecoder
	var frontier []uint64
	for _, b := range h.blocks {
		for r.Reset(b); r.Remaining() > 0; {
			ev, err := dec.Decode(&r)
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
