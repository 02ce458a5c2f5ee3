package cluster

import (
	"encoding/binary"
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
//
// rvalFlags packs presence bits (OK, Values non-nil); the frontier and
// payload fields carry their own presence bits so nil round-trips as nil.
// The encoding is versioned from outside — connections by protoVersion,
// journal records by a tag byte per record — so this layout itself carries
// no version byte.

const (
	rvalOK        = 1 << 0
	rvalHasValues = 1 << 1
)

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

// DecodeEventBinary decodes one event encoded by AppendEventBinary. Byte
// fields are copied out of the reader's buffer: decoded events outlive the
// frame or record they arrived in.
func DecodeEventBinary(r *wire.Reader) (Event, error) {
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
	for i := uint64(0); i < n; i++ {
		ev, err := DecodeEventBinary(r)
		if err != nil {
			return h, err
		}
		h.Events = append(h.Events, ev)
	}
	h.Shard = int(r.Uvarint())
	h.Shards = int(r.Uvarint())
	return h, r.End()
}

// appendStats appends a stats snapshot's binary encoding, field by field in
// declaration order. The layout changes when Stats changes; that is safe
// because stats frames are never persisted and travel only on a client
// connection, which exchanges no protocol version: a client reads the stats
// of a node built from the same source.
func appendStats(w *wire.Writer, s Stats) {
	w.Uvarint(uint64(s.Node))
	w.String(s.Store)
	w.Varint(int64(s.Options.K))
	w.Varint(s.Ops)
	w.Varint(s.Sends)
	w.Varint(s.Receives)
	w.Varint(s.Events)
	w.Varint(s.BytesOut)
	w.Varint(s.FramesOut)
	w.Varint(s.BatchFrames)
	w.Varint(s.Retransmits)
	w.Varint(s.Reconnects)
	w.Varint(s.DupFrames)
	w.Varint(s.GapFrames)
	w.Varint(int64(s.Violations))
	q := uint64(0)
	if s.Quiesced {
		q = 1
	}
	w.Uvarint(q)
	w.Varint(s.BatchBytes)
	w.Varint(s.BatchPayloadBytes)
	w.Varint(int64(s.Members))
	w.Varint(s.SyncPulled)
	w.Varint(s.SyncServed)
	w.Varint(s.FailedLinks)
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
	s.Ops = r.Varint()
	s.Sends = r.Varint()
	s.Receives = r.Varint()
	s.Events = r.Varint()
	s.BytesOut = r.Varint()
	s.FramesOut = r.Varint()
	s.BatchFrames = r.Varint()
	s.Retransmits = r.Varint()
	s.Reconnects = r.Varint()
	s.DupFrames = r.Varint()
	s.GapFrames = r.Varint()
	s.Violations = int(r.Varint())
	s.Quiesced = r.Uvarint() == 1
	s.BatchBytes = r.Varint()
	s.BatchPayloadBytes = r.Varint()
	s.Members = int(r.Varint())
	s.SyncPulled = r.Varint()
	s.SyncServed = r.Varint()
	s.FailedLinks = r.Varint()
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
