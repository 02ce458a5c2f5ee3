package cluster

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/wire"
)

// Frame types of the cluster protocol. Every frame is a wire.WriteFrame
// payload behind the uvarint of its length, and the payload's first
// uvarint is the type; the rest is
// type-specific, encoded with the repository's varint codec. Every decoder
// reads its fields in order and rejects trailing bytes (wire.Reader.End).
//
// Replication connections are directional: the broadcasting node dials its
// peer and opens with tHello; the acceptor answers tHelloAck, its delivered
// count per shard; the dialer then streams tBatch frames, each holding a
// section per shard it has updates of — the shard's index and a run in seq
// order, encoded against what the connection carried before — coded through
// the connection's LZ stream, and the acceptor applies them and writes
// nothing back. When the dialer's quiescence check asks what the acceptor
// delivered, the dialer repeats its tHello behind the batches and the
// acceptor answers it with a fresh tHelloAck, in the opening layout. Client
// connections skip the hello and speak request/response pairs. The
// membership and anti-entropy frames are in proto_member.go, the
// compression envelope in compress.go; DESIGN.md §5.6 has the whole table.
//
// Numbers are never reused: 2, 3, 7, 9, 20, 21, 22, 25 and 26 belonged to
// frames of earlier protocol versions and stay retired.
const (
	tHello       = 1  // {from, version, shards}          dialer → acceptor
	tRequest     = 4  // {reqID mod 128, obj, kind, arg, delta}
	tResponse    = 5  // {reqID mod 128, flags, [count], [n, values...]}
	tStats       = 6  // {}
	tHistory     = 8  // {shard}
	tHelloAck    = 10 // {version, shards, delivered × shards}
	tBatch       = 11 // {rawLen, stream}: {(shard, run)...} coded, see appendBatch
	tStatsResp   = 12 // {stats}
	tHistoryResp = 13 // {history}
)

// protoVersion is the one protocol version this build speaks. A hello or
// join announcing any other version is answered (so the other end learns
// ours) and then refused; the dialer latches the mismatch as terminal. A
// format change bumps it: 14 codes every batch frame's sections through an
// LZ stream each replication connection keeps from empty at both ends
// (appendBatch), so what a link carried in the last 32 KiB crosses it as a
// back-reference; 13 carries every shard's updates of a pace in one
// batch frame, as runs with implied seqs, delta stamps and no origin
// (appendRun), and range chunks as such runs too; 12 acknowledges no batch
// (a sender learns what its peer delivered from the answer to a repeated
// hello) and carries the store's options in a stats reply; 11 catches a
// joiner up with one digest and one unasked stream per shard, where 10 had
// it request each range and ack each chunk; 10 sends a request id mod 128
// and a reply's presence fields as one flag byte (and the causal store's
// updates without the fields their type implies); 9 put a uvarint length
// in front of every frame, where 8 had four big-endian bytes.
const protoVersion = 14

// BatchMax caps how many updates of one shard coalesce into one tBatch
// section or one anti-entropy chunk. The deterministic wire and sync tables
// (cmd/loadgen -wirebench, -syncbench) are cut at it too.
const BatchMax = 64

// historyMaxFrame is the frame limit for history transfers, which carry a
// whole recorded execution and dwarf every other frame.
const historyMaxFrame = 64 << 20

// protoUpdate is the decoded view of one broadcast update: of an entry of a
// tBatch or tRangeResp run (decodeRun; Payload aliases the frame, or the
// tBatch body the connection's stream decoded it to), or
// of the send or receive record a shard holds it in (eventLog.update; Payload
// aliases the record). Nothing stores one: a node keeps the record, and an
// 8-byte position of it per update. Lamport, read from a record, is the
// stamp the holding node recorded the event under — the send stamp for its
// own broadcast, its receive stamp (which exceeds the origin's send stamp)
// for anyone else's — whether the node has restarted since or not, so a
// range served to a joiner is a function of the donor's journal alone.
type protoUpdate struct {
	Origin  model.ReplicaID
	Seq     uint64
	Lamport uint64
	Payload []byte
}

// hello carries a decoded tHello. Shards is meaningful only when Version is
// protoVersion: what follows the version in another version's hello is that
// version's business, and is not read.
type hello struct {
	From    model.ReplicaID
	Version uint64
	Shards  uint64
}

func appendHello(w *wire.Writer, from model.ReplicaID, shards int) {
	w.Uvarint(tHello)
	w.Uvarint(uint64(from))
	w.Uvarint(protoVersion)
	w.Uvarint(uint64(shards))
}

// decodeHello decodes a hello whose type tag has already been read.
func decodeHello(r *wire.Reader) (hello, error) {
	h := hello{From: model.ReplicaID(r.Uvarint()), Version: r.Uvarint()}
	if r.Err() != nil || h.Version != protoVersion {
		return h, r.Err()
	}
	h.Shards = r.Uvarint()
	return h, r.End()
}

// helloAck carries a decoded tHelloAck: the acceptor's version and, per
// shard (so as many as it has shards), its cumulative delivered count for
// the dialer's origin. At connect time it is a pre-ack that moves the
// dialer's cursor, zero on a new link, to what the acceptor lacks before the
// first send; later, answering a repeated hello, it is a cumulative ack of
// every shard. Like hello, nothing past a foreign version is read.
type helloAck struct {
	Version   uint64
	Delivered []uint64
}

func appendHelloAck(w *wire.Writer, delivered []uint64) {
	w.Uvarint(tHelloAck)
	w.Uvarint(protoVersion)
	w.Uvarint(uint64(len(delivered)))
	for _, d := range delivered {
		w.Uvarint(d)
	}
}

// decodeHelloAck decodes a tHelloAck whose type tag has already been read.
func decodeHelloAck(r *wire.Reader) (helloAck, error) {
	a := helloAck{Version: r.Uvarint()}
	if r.Err() != nil || a.Version != protoVersion {
		return a, r.Err()
	}
	shards := r.Uvarint()
	if err := r.Err(); err != nil {
		return a, err
	}
	if shards > uint64(r.Remaining()) {
		return a, fmt.Errorf("cluster: implausible shard count %d", shards)
	}
	a.Delivered = make([]uint64, shards)
	for i := range a.Delivered {
		a.Delivered[i] = r.Uvarint()
	}
	return a, r.End()
}

// runState is what one connection has carried of one shard's seq domain:
// the seq and the Lamport stamp of the last update in it, zero before the
// first. Both ends of a replication connection keep one per shard, from
// zero on each new connection (serve, serveReplication), so a run costs
// only what the one before it does not imply; a range chunk starts from
// the zero state.
type runState struct {
	seq, lamport uint64
}

// appendRun encodes a run of one origin's updates with contiguous seqs —
// what a shard's log hands a link or a donor — as it follows st, and
// advances st past it:
//
//	run = count, seqGap, (stampDelta, payload)...
//
// seqGap is the first seq less st.seq+1, and each stampDelta the update's
// stamp less the one before it (st.lamport for the first), both modulo
// 2⁶⁴: a run never carries a per-update seq, an origin or an absolute
// stamp, and anything decodes back exactly.
func appendRun(w *wire.Writer, st *runState, us []protoUpdate) {
	w.Uvarint(uint64(len(us)))
	w.Uvarint(us[0].Seq - st.seq - 1)
	for _, u := range us {
		w.Uvarint(u.Lamport - st.lamport)
		st.lamport = u.Lamport
		w.Uvarint(uint64(len(u.Payload)))
		w.Raw(u.Payload)
	}
	st.seq = us[len(us)-1].Seq
}

// decodeRun decodes a run of origin's updates that follows st into us[:0] —
// the receiving handler's own scratch, reused run after run — returns it,
// and advances st past it. Payloads are subslices of the frame buffer
// (zero-copy): the shard's turn copies each before anything keeps it. A
// run holds at least one update.
func decodeRun(r *wire.Reader, st *runState, origin model.ReplicaID, us []protoUpdate) ([]protoUpdate, error) {
	n := r.Uvarint()
	first := st.seq + r.Uvarint() + 1
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each update costs at least two bytes (its stamp delta, its payload's
	// length); beyond that the count is corrupt and would allocate
	// unboundedly.
	if n == 0 || n > uint64(r.Remaining()/2) {
		return nil, fmt.Errorf("cluster: implausible run of %d updates", n)
	}
	us = slices.Grow(us[:0], int(n))
	lamport := st.lamport
	for i := uint64(0); i < n; i++ {
		lamport += r.Uvarint()
		us = append(us, protoUpdate{Origin: origin, Seq: first + i, Lamport: lamport, Payload: r.Bytes()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	st.seq, st.lamport = first+n-1, lamport
	return us, nil
}

// decodeSection decodes the next section of a tBatch body (decodeBatchBody)
// — a shard and its run — through runs, the connection's state of each
// shard, into us[:0]. A shard past runs, which the receiver does not have,
// is an error.
func decodeSection(r *wire.Reader, runs []runState, origin model.ReplicaID, us []protoUpdate) (shard int, _ []protoUpdate, err error) {
	s := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if s >= uint64(len(runs)) {
		return 0, nil, fmt.Errorf("cluster: batch section for shard %d of %d", s, len(runs))
	}
	us, err = decodeRun(r, &runs[s], origin, us)
	return int(s), us, err
}

// appendBatch appends a tBatch frame whose sections body holds — each a
// shard's index and its run (appendRun), encoded against the connection's
// run state — coded through lz, the connection's stream:
//
//	tBatch rawLen stream-bytes
//
// The stream bytes decode to body's rawLen bytes against everything the
// connection's stream carried before (wire.StreamEncoder), so what the link
// carried in the last wire.StreamWindow bytes costs a back-reference. They
// are at most wire.StreamBound(rawLen) bytes.
func appendBatch(w *wire.Writer, lz *wire.StreamEncoder, body []byte) {
	w.Uvarint(tBatch)
	w.Uvarint(uint64(len(body)))
	lz.Encode(w, body)
}

// decodeBatchBody decodes the rest of a tBatch frame whose type tag r has
// read through lz, the receiving connection's stream, back to the frame's
// sections (decodeSection reads them). The body is a view of lz's history,
// valid until the connection's next frame, as a frame's bytes are. A rawLen
// above wire.DefaultMaxFrame, or stream bytes that do not decode to exactly
// rawLen bytes, is an error, and the connection hangs up.
func decodeBatchBody(r *wire.Reader, lz *wire.StreamDecoder) ([]byte, error) {
	rawLen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return lz.Decode(r.Fixed(r.Remaining()), rawLen, wire.DefaultMaxFrame)
}

// appendRange encodes an anti-entropy chunk of origin's updates in one
// shard: a tRangeResp whose run starts from the zero state.
func appendRange(w *wire.Writer, shard int, origin model.ReplicaID, us []protoUpdate) {
	w.Uvarint(tRangeResp)
	w.Uvarint(uint64(shard))
	w.Uvarint(uint64(origin))
	appendRun(w, &runState{}, us)
}

// decodeRange decodes a tRangeResp body whose type tag has already been
// read into us[:0], as decodeRun does.
func decodeRange(r *wire.Reader, us []protoUpdate) (shard uint64, _ []protoUpdate, err error) {
	shard = r.Uvarint()
	origin := model.ReplicaID(r.Uvarint())
	if us, err = decodeRun(r, &runState{}, origin, us); err != nil {
		return 0, nil, err
	}
	if err := r.End(); err != nil {
		return 0, nil, err
	}
	return shard, us, nil
}

// reqIDs bounds the request id a tRequest carries and its tResponse
// echoes: one uvarint byte. A client connection is strictly
// request/response, so the echo only has to tell this request's reply from a
// stale one, which it does for any offset that is not a multiple of 128.
const reqIDs = 128

// The flags of a tResponse: which of the response's fields follow.
const (
	respOK        = 1 << iota // resp.OK
	respHasCount              // a varint count follows
	respHasValues             // a value count and the values follow (Values != nil)
)

// appendRequest encodes request reqID (< reqIDs) of op on obj.
func appendRequest(w *wire.Writer, reqID uint64, obj model.ObjectID, op model.Operation) {
	w.Uvarint(tRequest)
	w.Uvarint(reqID)
	w.String(string(obj))
	w.Uvarint(uint64(op.Kind))
	w.String(string(op.Arg))
	w.Varint(op.Delta)
}

// decodeRequest decodes a tRequest whose type tag has already been read. The
// object and the argument are views of the frame, lent for the current
// answer only: the router reads them and the do record's head copies them
// (shard.do) before the connection reads its next frame over them.
func decodeRequest(r *wire.Reader) (reqID uint64, obj model.ObjectID, op model.Operation, err error) {
	reqID = r.Uvarint()
	obj = model.ObjectID(r.StringView())
	op.Kind = model.OpKind(r.Uvarint())
	op.Arg = model.Value(r.StringView())
	op.Delta = r.Varint()
	err = r.End()
	if err == nil && reqID >= reqIDs {
		err = fmt.Errorf("cluster: request id %d past %d", reqID, reqIDs-1)
	}
	return reqID, obj, op, err
}

// appendResponse encodes the reply to request reqID, echoing its id.
func appendResponse(w *wire.Writer, reqID uint64, resp model.Response) {
	w.Uvarint(tResponse)
	w.Uvarint(reqID)
	var flags uint64
	if resp.OK {
		flags |= respOK
	}
	if resp.Count != 0 {
		flags |= respHasCount
	}
	if resp.Values != nil {
		flags |= respHasValues
	}
	w.Uvarint(flags)
	if flags&respHasCount != 0 {
		w.Varint(resp.Count)
	}
	if flags&respHasValues != 0 {
		w.Uvarint(uint64(len(resp.Values)))
		for _, v := range resp.Values {
			w.String(string(v))
		}
	}
}

func decodeResponse(r *wire.Reader) (reqID uint64, resp model.Response, err error) {
	reqID = r.Uvarint()
	flags := r.Uvarint()
	if err := r.Err(); err != nil {
		return reqID, resp, err
	}
	if reqID >= reqIDs || flags >= respHasValues<<1 {
		return reqID, resp, fmt.Errorf("cluster: response id %d, flags %#x out of range", reqID, flags)
	}
	resp.OK = flags&respOK != 0
	if flags&respHasCount != 0 {
		resp.Count = r.Varint()
	}
	if flags&respHasValues != 0 {
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return reqID, resp, err
		}
		// Every value costs at least its one-byte length prefix, so a valid
		// count never exceeds the bytes left. (The previous guard allowed
		// Remaining+1 — one more value than the buffer can possibly hold.)
		if n > uint64(r.Remaining()) {
			return reqID, resp, fmt.Errorf("cluster: implausible value count %d", n)
		}
		resp.Values = make([]model.Value, 0, n)
		for i := uint64(0); i < n; i++ {
			resp.Values = append(resp.Values, model.Value(r.String()))
		}
	}
	return reqID, resp, r.End()
}

// appendHistoryReq asks for one shard's recorded history.
func appendHistoryReq(w *wire.Writer, shard int) {
	w.Uvarint(tHistory)
	w.Uvarint(uint64(shard))
}

func decodeHistoryReq(r *wire.Reader) (shard uint64, err error) {
	shard = r.Uvarint()
	return shard, r.End()
}
