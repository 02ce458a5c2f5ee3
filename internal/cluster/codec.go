package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/wire"
)

// This file is the encoding of the cluster's structured records — events,
// histories, and stats snapshots — on the wire and in the journal. (The
// struct tags in history.go are for the admin endpoint's JSON rendering of
// the same records, which nothing reads back.)
//
// Layout (all integers varint/uvarint, strings and byte fields
// length-prefixed):
//
//	event   = kind lamport body
//	body    = do | transfer                 (by kind)
//	do      = object opKind opArg opDelta rvalFlags rvalCount
//	          [nValues value*] dotOrigin dotSeq [nFrontier frontier*]
//	transfer= origin seq [payload]          (send and receive)
//	short   = shortSend lamport origin seq back at rest
//
// rvalFlags packs presence bits (OK, Values non-nil); the frontier and
// payload fields carry their own presence bits so nil round-trips as nil.
// The encoding is versioned from outside — connections by protoVersion,
// journal records by a tag byte per record — so this layout itself carries
// no version byte.
//
// short is a send record in a shard's log that leaves out the argument of
// the do record just before it: the payload is rest[:at] ‖ arg ‖ rest[at:],
// arg being that do's Op.Arg, and back the do record's byte distance before
// this one in their block. The log writes it (eventLog.append) only when the
// do is the record just before the send, in the same block, with a non-empty
// argument the payload holds, and the short form is the shorter; so a
// write's value is kept once at its origin. Random access finds the do by
// back (eventLog.update); reading in order finds it as the record before
// (EventDecoder). A standalone record never refers to another:
// AppendEventBinary writes the full form only, and DecodeEventBinary refuses
// the short one.

const (
	rvalOK        = 1 << 0
	rvalHasValues = 1 << 1
)

// shortSend is the kind field of a send record in short form: a value no
// model.Action takes.
const shortSend = 0x20

// errShortSendAlone reports a send record in short form that does not follow
// a do record it can take its argument from.
var errShortSendAlone = errors.New("cluster: a send record in short form follows no do record with an argument")

// AppendEventBinary appends ev's binary encoding to w. It is exported for
// internal/durable, whose journal records hold events in this encoding.
func AppendEventBinary(w *wire.Writer, ev Event) error {
	switch ev.Kind {
	case model.ActDo:
		appendDoHead(w, ev.Lamport, ev.Object, ev.Op)
		appendDoTail(w, ev)
	case model.ActSend, model.ActReceive:
		w.Uvarint(uint64(ev.Kind))
		w.Uvarint(ev.Lamport)
		w.Uvarint(uint64(ev.Origin))
		w.Uvarint(ev.Seq)
		if ev.Payload == nil {
			w.Uvarint(0)
		} else {
			w.Uvarint(1)
			w.Uvarint(uint64(len(ev.Payload)))
			w.Raw(ev.Payload)
		}
	default:
		return fmt.Errorf("cluster: cannot encode event kind %v", ev.Kind)
	}
	return nil
}

// appendDoHead appends the first fields of a do event's encoding — kind,
// lamport, object and op — which are known before the store runs the
// operation (eventLog.openDo); appendDoTail appends the rest.
func appendDoHead(w *wire.Writer, lamport uint64, obj model.ObjectID, op model.Operation) {
	w.Uvarint(uint64(model.ActDo))
	w.Uvarint(lamport)
	w.String(string(obj))
	w.Uvarint(uint64(op.Kind))
	w.String(string(op.Arg))
	w.Varint(op.Delta)
}

// doTailMax bounds appendDoTail's bytes for a response without values and a
// frontier of width entries: two one-byte fields (the response's flags, the
// frontier's presence) and the varints — count, dot origin and seq, frontier
// length and entries.
func doTailMax(width int) int {
	return 2 + binary.MaxVarintLen64*(4+width)
}

// appendDoTail appends the fields of a do event's encoding that follow its
// head: the response, the dot and the frontier.
func appendDoTail(w *wire.Writer, ev Event) {
	flags := uint64(0)
	if ev.Rval.OK {
		flags |= rvalOK
	}
	if ev.Rval.Values != nil {
		flags |= rvalHasValues
	}
	w.Uvarint(flags)
	w.Varint(ev.Rval.Count)
	if ev.Rval.Values != nil {
		w.Uvarint(uint64(len(ev.Rval.Values)))
		for _, v := range ev.Rval.Values {
			w.String(string(v))
		}
	}
	w.Dot(ev.Dot)
	if ev.Frontier == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(1)
		w.Uvarint(uint64(len(ev.Frontier)))
		for _, s := range ev.Frontier {
			w.Uvarint(s)
		}
	}
}

// appendShortSend appends send event ev's record in short form, when it is
// shorter than the full one: arg is the argument of the do record before it
// — non-empty, a substring of ev.Payload — and back that record's distance
// before this one. It reports whether it appended anything.
func appendShortSend(w *wire.Writer, ev Event, arg []byte, back int) bool {
	at := bytes.Index(ev.Payload, arg)
	if at < 0 {
		return false
	}
	rest := len(ev.Payload) - len(arg)
	short := wire.UvarintLen(uint64(back)) + wire.UvarintLen(uint64(at)) + wire.UvarintLen(uint64(rest)) + rest
	if full := 1 + wire.UvarintLen(uint64(len(ev.Payload))) + len(ev.Payload); short >= full {
		return false
	}
	w.Uvarint(shortSend)
	w.Uvarint(ev.Lamport)
	w.Uvarint(uint64(ev.Origin))
	w.Uvarint(ev.Seq)
	w.Uvarint(uint64(back))
	w.Uvarint(uint64(at))
	w.Uvarint(uint64(rest))
	w.Raw(ev.Payload[:at])
	w.Raw(ev.Payload[at+len(arg):])
	return true
}

// readShortSend reads the fields of a short send record behind its stamp —
// origin and seq into u, then back and the payload's pieces before and after
// the argument, views of r's buffer. ok is false for a record r cannot read
// or whose argument lies past its payload.
func readShortSend(r *wire.Reader, u *protoUpdate) (back int, before, after []byte, ok bool) {
	u.Origin = model.ReplicaID(r.Uvarint())
	u.Seq = r.Uvarint()
	back = int(r.Uvarint())
	at := r.Uvarint()
	rest := r.Bytes()
	if r.Err() != nil || at > uint64(len(rest)) {
		return 0, nil, nil, false
	}
	return back, rest[:at], rest[at:], true
}

// DecodeEventBinary decodes one event encoded by AppendEventBinary. Byte
// fields are copied out of the reader's buffer: decoded events outlive the
// frame or record they arrived in. A send record in short form, which only a
// shard's log holds, is refused: it refers to the record before it (see
// EventDecoder).
func DecodeEventBinary(r *wire.Reader) (Event, error) {
	return decodeEvent(r, "")
}

// EventDecoder decodes a shard's records in the order the log holds them —
// a history snapshot or reply, a journal — resolving a send record in short
// form against the do record just before it. The zero value is ready; use
// one decoder per sequence of records.
type EventDecoder struct {
	arg model.Value // the last record's Op.Arg, if it was a do; "" otherwise
}

// Decode decodes the next record of the sequence, as DecodeEventBinary
// does, but for a send in short form. After an error the decoder starts
// afresh: the next record may not refer to the one before.
func (d *EventDecoder) Decode(r *wire.Reader) (Event, error) {
	ev, err := decodeEvent(r, d.arg)
	d.arg = ""
	if err == nil && ev.Kind == model.ActDo {
		d.arg = ev.Op.Arg
	}
	return ev, err
}

// decodeEvent decodes one record; arg is the argument of the do record just
// before it, "" if there is none, which a send in short form must have.
func decodeEvent(r *wire.Reader, arg model.Value) (Event, error) {
	var ev Event
	ev.Kind = model.Action(r.Uvarint())
	ev.Lamport = r.Uvarint()
	switch ev.Kind {
	case model.ActDo:
		ev.Object = model.ObjectID(r.String())
		ev.Op.Kind = model.OpKind(r.Uvarint())
		ev.Op.Arg = model.Value(r.String())
		ev.Op.Delta = r.Varint()
		flags := r.Uvarint()
		ev.Rval.OK = flags&rvalOK != 0
		ev.Rval.Count = r.Varint()
		if flags&rvalHasValues != 0 {
			n := r.Uvarint()
			if n > uint64(r.Remaining()) {
				return ev, fmt.Errorf("cluster: implausible rval value count %d", n)
			}
			ev.Rval.Values = make([]model.Value, 0, n)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				ev.Rval.Values = append(ev.Rval.Values, model.Value(r.String()))
			}
		}
		ev.Dot = r.Dot()
		if r.Uvarint() == 1 {
			n := r.Uvarint()
			if n > uint64(r.Remaining()) {
				return ev, fmt.Errorf("cluster: implausible frontier length %d", n)
			}
			ev.Frontier = make([]uint64, n)
			for i := range ev.Frontier {
				ev.Frontier[i] = r.Uvarint()
			}
		}
	case model.ActSend, model.ActReceive:
		ev.Origin = model.ReplicaID(r.Uvarint())
		ev.Seq = r.Uvarint()
		if r.Uvarint() == 1 {
			// Present stays non-nil even when empty: an empty message is a
			// message, and restore tells the two apart.
			ev.Payload = append([]byte{}, r.Bytes()...)
		}
	case shortSend:
		var u protoUpdate
		_, before, after, ok := readShortSend(r, &u)
		if !ok {
			if err := r.Err(); err != nil {
				return ev, err
			}
			return ev, fmt.Errorf("cluster: short send's argument offset is past its payload")
		}
		if arg == "" {
			return ev, errShortSendAlone
		}
		ev.Kind, ev.Origin, ev.Seq = model.ActSend, u.Origin, u.Seq
		ev.Payload = make([]byte, 0, len(before)+len(arg)+len(after))
		ev.Payload = append(append(append(ev.Payload, before...), arg...), after...)
	default:
		if err := r.Err(); err != nil {
			return ev, err
		}
		return ev, fmt.Errorf("cluster: unknown event kind %v", ev.Kind)
	}
	return ev, r.Err()
}

// decodeHistory decodes one history: identity, then the event count, then
// each event, then the shard identity (encodedHistory.appendTo writes it).
func decodeHistory(r *wire.Reader) (History, error) {
	var h History
	h.Node = model.ReplicaID(r.Uvarint())
	h.N = int(r.Uvarint())
	h.Store = r.String()
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		return h, fmt.Errorf("cluster: implausible event count %d", n)
	}
	var dec EventDecoder
	for i := uint64(0); i < n; i++ {
		ev, err := dec.Decode(r)
		if err != nil {
			return h, err
		}
		h.Events = append(h.Events, ev)
	}
	h.Shard = int(r.Uvarint())
	h.Shards = int(r.Uvarint())
	return h, r.End()
}

// appendStats appends a stats snapshot's binary encoding: identity, the
// table counters in order, then the shard breakdown. The layout changes when
// Stats changes; that is safe because stats frames are never persisted and
// travel only on a client connection, which exchanges no protocol version: a
// client reads the stats of a node built from the same source.
func appendStats(w *wire.Writer, s Stats) {
	w.Uvarint(uint64(s.Node))
	w.String(s.Store)
	w.Varint(int64(s.Options.K))
	for i := range counters {
		if f, flag := s.counter(i); f != nil {
			w.Varint(*f)
		} else if *flag {
			w.Uvarint(1)
		} else {
			w.Uvarint(0)
		}
	}
	w.Varint(int64(s.Shards))
	shardSlice := func(vs []int64) {
		w.Uvarint(uint64(len(vs)))
		for _, v := range vs {
			w.Varint(v)
		}
	}
	shardSlice(s.ShardOps)
	shardSlice(s.ShardSends)
	shardSlice(s.ShardReceives)
	shardSlice(s.ShardEvents)
}

// decodeStats decodes one stats snapshot encoded by appendStats.
func decodeStats(r *wire.Reader) (Stats, error) {
	var s Stats
	s.Node = model.ReplicaID(r.Uvarint())
	s.Store = r.String()
	s.Options.K = int(r.Varint())
	for i := range counters {
		if f, flag := s.counter(i); f != nil {
			*f = r.Varint()
		} else {
			*flag = r.Uvarint() == 1
		}
	}
	s.Shards = int(r.Varint())
	for _, vs := range []*[]int64{&s.ShardOps, &s.ShardSends, &s.ShardReceives, &s.ShardEvents} {
		n := r.Uvarint()
		if n > uint64(r.Remaining()) {
			return s, fmt.Errorf("cluster: implausible shard counter count %d", n)
		}
		if n > 0 {
			*vs = make([]int64, n)
		}
		for i := range *vs {
			(*vs)[i] = r.Varint()
		}
	}
	return s, r.End()
}
