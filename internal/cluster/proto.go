package cluster

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/wire"
)

// Frame types of the cluster protocol. Every frame is a wire.WriteFrame
// length-delimited payload whose first uvarint is the type; the rest is
// type-specific, encoded with the repository's varint codec.
//
// Replication connections are directional: the broadcasting node dials its
// peer, opens with tHello, and streams tUpdate (or, once both ends have
// negotiated the binary codec, tBatch) frames in seq order; the accepting
// side answers each applied frame with a cumulative tAck on the same
// connection — one ack per frame, so a batch of k updates coalesces k acks
// into one. Client connections skip the hello and speak request/response
// pairs.
//
// Codec negotiation rides the hello exchange. A v2 hello appends a protocol
// version and the dialer's preferred codec ID after the v1 {from} field; a
// v1 receiver reads {from} and ignores the rest, so the extension is
// invisible to it. A v2 receiver answers immediately with tHelloAck carrying
// the chosen codec — the lower of the two preferences, wire.JSON being the
// floor every version speaks. Until the dialer sees the tHelloAck it streams
// in the v1 format, so a v1 peer (which never acks the hello) simply keeps
// the connection in the fallback forever, and no side ever blocks waiting
// for a negotiation round-trip.
const (
	tHello        = 1  // {from [, version, codec]}     replica → peer, opens a replication conn
	tUpdate       = 2  // {origin, seq, lamport, payload}
	tAck          = 3  // {cumSeq}                      cumulative ack of the dialer's updates
	tRequest      = 4  // {reqID, obj, kind, arg, delta}
	tResponse     = 5  // {reqID, ok, count, hasValues, values...}
	tStats        = 6  // {[codec]}
	tStatsResp    = 7  // {json}
	tHistory      = 8  // {[codec]}
	tHistoryResp  = 9  // {json}
	tHelloAck     = 10 // {version, codec}              acceptor → dialer, seals negotiation
	tBatch        = 11 // {origin, count, (seq, lamport, payload)...}
	tStatsRespB   = 12 // {binary stats}
	tHistoryRespB = 13 // {binary history}

	// Shard-multiplexed replication (v5). One connection carries every
	// shard's update stream; each frame names the shard whose independent
	// seq domain it belongs to. Only used once both ends have sealed an
	// equal shard count via the hello exchange — a single-shard link never
	// emits them, so pre-v5 peers interoperate untouched.
	tShardBatch = 25 // {shard, origin, count, (seq, lamport, payload)...}
	tShardAck   = 26 // {shard, cumSeq}
)

// helloVersion is the protocol version a hello announces. Version 1 is
// the bare {from} hello with JSON structured transfers and one update per
// frame; version 2 adds codec negotiation, batch frames, and binary
// structured transfers; version 3 adds the delivered watermark on
// tHelloAck (so a dialer offering its full backlog prunes what the
// acceptor already holds before the first send) and the membership frames
// in proto_member.go; version 4 adds per-frame compression (a trailing
// algorithm ID on tHello/tHelloAck/tJoin/tJoinAck negotiated min-wins
// like the codec, plus the tCompressed envelope in compress.go) and the
// windowed range pulls (a trailing credit window on tRangeReq); version 5
// adds the shard count (trailing on tHello/tHelloAck) and the
// shard-multiplexed tShardBatch/tShardAck frames, plus per-shard
// delivered watermarks trailing the tHelloAck.
const helloVersion = 5

// historyMaxFrame is the frame limit for history transfers, which carry a
// whole recorded execution and dwarf every other frame.
const historyMaxFrame = 64 << 20

type protoUpdate struct {
	Origin  model.ReplicaID
	Seq     uint64
	Lamport uint64
	Payload []byte
}

// hello carries a decoded tHello: the v1 fields plus the negotiation
// extension (zero-valued when the dialer spoke v1). Shards is the dialer's
// shard count; pre-v5 hellos decode it as 1 (single-shard mode).
type hello struct {
	From    model.ReplicaID
	Version uint64
	Codec   wire.CodecID
	Comp    uint64
	Shards  uint64
}

// appendHello encodes a v5 hello into w. The extension fields trail the v1
// layout, which is what keeps old receivers compatible: they stop reading
// after From (and a v2/v3 receiver stops before the compression ID, a v4
// receiver before the shard count).
func appendHello(w *wire.Writer, from model.ReplicaID, codec wire.CodecID, comp uint64, shards uint64) {
	w.Uvarint(tHello)
	w.Uvarint(uint64(from))
	w.Uvarint(helloVersion)
	w.Uvarint(uint64(codec))
	w.Uvarint(comp)
	w.Uvarint(shards)
}

// decodeHello decodes a hello whose type tag has already been read. A bare
// v1 hello (nothing after From) yields Version 1 and the JSON codec; a
// pre-v4 hello has no compression ID and yields wire.CompNone; a pre-v5
// hello has no shard count and yields 1.
func decodeHello(r *wire.Reader) (hello, error) {
	h := hello{Version: 1, Codec: wire.CodecJSON, Shards: 1}
	h.From = model.ReplicaID(r.Uvarint())
	if err := r.Err(); err != nil {
		return h, err
	}
	if r.Remaining() == 0 {
		return h, nil
	}
	h.Version = r.Uvarint()
	h.Codec = wire.CodecID(r.Uvarint())
	if err := r.Err(); err != nil {
		return h, err
	}
	if r.Remaining() == 0 {
		return h, nil
	}
	h.Comp = r.Uvarint()
	if err := r.Err(); err != nil {
		return h, err
	}
	if r.Remaining() == 0 {
		return h, nil
	}
	h.Shards = r.Uvarint()
	return h, r.Err()
}

// appendHelloAck encodes the acceptor's negotiation answer. delivered is
// the acceptor's cumulative delivered count for the dialer's origin: a v3
// dialer treats it as a pre-ack and prunes its offer queue, which is what
// makes Connect's full-backlog offer cost one varint instead of a
// re-shipped history on reconnect. A v2 dialer stops reading after the
// codec and retransmits the backlog as before — correct, just chattier.
// comp is the negotiated compression algorithm (v4 extension, trailing so
// a v3 dialer stops after delivered and stays uncompressed). shards is the
// acceptor's shard count and shardDelivered its per-shard delivered
// watermarks for the dialer's origin (v5 extension; a sharded dialer needs
// one watermark per independent seq domain, the first of which duplicates
// the v3 delivered field so older dialers keep their pre-ack).
func appendHelloAck(w *wire.Writer, codec wire.CodecID, delivered uint64, comp uint64, shards uint64, shardDelivered []uint64) {
	w.Uvarint(tHelloAck)
	w.Uvarint(helloVersion)
	w.Uvarint(uint64(codec))
	w.Uvarint(delivered)
	w.Uvarint(comp)
	w.Uvarint(shards)
	w.Uvarint(uint64(len(shardDelivered)))
	for _, d := range shardDelivered {
		w.Uvarint(d)
	}
}

// helloAck carries a decoded tHelloAck.
type helloAck struct {
	Codec          wire.CodecID
	Delivered      uint64
	Comp           uint64
	Shards         uint64
	ShardDelivered []uint64
}

// decodeHelloAck decodes a tHelloAck whose type tag has already been read.
// A v2 ack has no delivered watermark; it decodes as 0, which pre-acks
// nothing. A pre-v4 ack has no compression ID: wire.CompNone. A pre-v5 ack
// has no shard count: 1, with no per-shard watermarks.
func decodeHelloAck(r *wire.Reader) (helloAck, error) {
	a := helloAck{Shards: 1}
	r.Uvarint() // version: informational, the codec field is what binds
	a.Codec = wire.CodecID(r.Uvarint())
	if err := r.Err(); err != nil {
		return a, err
	}
	if r.Remaining() == 0 {
		return a, nil
	}
	a.Delivered = r.Uvarint()
	if err := r.Err(); err != nil {
		return a, err
	}
	if r.Remaining() == 0 {
		return a, nil
	}
	a.Comp = r.Uvarint()
	if err := r.Err(); err != nil {
		return a, err
	}
	if r.Remaining() == 0 {
		return a, nil
	}
	a.Shards = r.Uvarint()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return a, err
	}
	if n > uint64(r.Remaining()) {
		return a, fmt.Errorf("cluster: implausible shard watermark count %d", n)
	}
	a.ShardDelivered = make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		a.ShardDelivered = append(a.ShardDelivered, r.Uvarint())
	}
	return a, r.Err()
}

// negotiateCodec picks the connection codec from the two ends' preferences:
// the lower ID wins, so a JSON-only end (ID 0) pins the connection to the
// fallback and two binary-capable ends get the compact codec. Unknown IDs
// (a newer peer) degrade to JSON rather than erroring: the fallback is the
// whole point of the negotiation.
func negotiateCodec(a, b wire.CodecID) wire.CodecID {
	chosen := a
	if b < chosen {
		chosen = b
	}
	if _, ok := wire.CodecByID(chosen); !ok {
		return wire.CodecJSON
	}
	return chosen
}

func encodeHello(from model.ReplicaID) []byte {
	w := wire.NewWriter()
	w.Uvarint(tHello)
	w.Uvarint(uint64(from))
	return w.Bytes()
}

// appendUpdate encodes one v1 update frame into w. The payload rides behind
// a uvarint length via Raw — the old String(string(payload)) route copied
// the payload into a string and then into the buffer, twice per update on
// the hot send path.
func appendUpdate(w *wire.Writer, u protoUpdate) {
	w.Uvarint(tUpdate)
	w.Uvarint(uint64(u.Origin))
	w.Uvarint(u.Seq)
	w.Uvarint(u.Lamport)
	w.Uvarint(uint64(len(u.Payload)))
	w.Raw(u.Payload)
}

func encodeUpdate(u protoUpdate) []byte {
	w := wire.NewWriter()
	appendUpdate(w, u)
	return w.Bytes()
}

// decodeUpdate decodes a tUpdate body. The payload is returned as a
// subslice of the frame buffer (zero-copy): the event loop copies it if it
// records it, and replicas copy whatever they retain while decoding.
func decodeUpdate(r *wire.Reader) (protoUpdate, error) {
	u := protoUpdate{
		Origin:  model.ReplicaID(r.Uvarint()),
		Seq:     r.Uvarint(),
		Lamport: r.Uvarint(),
		Payload: r.Bytes(),
	}
	return u, r.Err()
}

// appendBatch encodes a tBatch frame: one origin (a replication link only
// ever carries the dialer's own broadcasts), then each update's seq,
// lamport, and payload. Compared with the same updates as tUpdate frames it
// saves the per-update frame header, type tag, and origin — the framing
// overhead Theorem 12's bytes/op accounting should not be charging to
// metadata.
func appendBatch(w *wire.Writer, origin model.ReplicaID, us []protoUpdate) {
	w.Uvarint(tBatch)
	w.Uvarint(uint64(origin))
	w.Uvarint(uint64(len(us)))
	for _, u := range us {
		w.Uvarint(u.Seq)
		w.Uvarint(u.Lamport)
		w.Uvarint(uint64(len(u.Payload)))
		w.Raw(u.Payload)
	}
}

// decodeBatch decodes a tBatch body into us[:0] — the receiving handler's
// own scratch, reused frame after frame — and returns it. Payloads alias
// the frame buffer, like decodeUpdate's.
func decodeBatch(r *wire.Reader, us []protoUpdate) ([]protoUpdate, error) {
	origin := model.ReplicaID(r.Uvarint())
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each update costs at least three bytes (seq, lamport, length), but the
	// guard that matters is one value per remaining byte: beyond that the
	// count is corrupt and would allocate unboundedly.
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("cluster: implausible batch count %d", n)
	}
	us = slices.Grow(us[:0], int(n))
	for i := uint64(0); i < n; i++ {
		u := protoUpdate{
			Origin:  origin,
			Seq:     r.Uvarint(),
			Lamport: r.Uvarint(),
			Payload: r.Bytes(),
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		us = append(us, u)
	}
	return us, nil
}

// appendShardBatch encodes a tShardBatch frame: the shard index, then the
// same layout as tBatch. Sharded links carry every shard's stream over one
// connection, so the shard index is what routes the frame to the right seq
// domain on the receiving side.
func appendShardBatch(w *wire.Writer, shard int, origin model.ReplicaID, us []protoUpdate) {
	w.Uvarint(tShardBatch)
	w.Uvarint(uint64(shard))
	w.Uvarint(uint64(origin))
	w.Uvarint(uint64(len(us)))
	for _, u := range us {
		w.Uvarint(u.Seq)
		w.Uvarint(u.Lamport)
		w.Uvarint(uint64(len(u.Payload)))
		w.Raw(u.Payload)
	}
}

// decodeShardBatch decodes a tShardBatch body into us[:0], like decodeBatch.
func decodeShardBatch(r *wire.Reader, us []protoUpdate) (shard uint64, _ []protoUpdate, err error) {
	shard = r.Uvarint()
	if err := r.Err(); err != nil {
		return shard, nil, err
	}
	us, err = decodeBatch(r, us)
	return shard, us, err
}

func appendShardAck(w *wire.Writer, shard uint64, cum uint64) {
	w.Uvarint(tShardAck)
	w.Uvarint(shard)
	w.Uvarint(cum)
}

func decodeShardAck(r *wire.Reader) (shard, cum uint64, err error) {
	shard = r.Uvarint()
	cum = r.Uvarint()
	return shard, cum, r.Err()
}

func appendAck(w *wire.Writer, cum uint64) {
	w.Uvarint(tAck)
	w.Uvarint(cum)
}

func encodeAck(cum uint64) []byte {
	w := wire.NewWriter()
	appendAck(w, cum)
	return w.Bytes()
}

func encodeRequest(reqID uint64, obj model.ObjectID, op model.Operation) []byte {
	w := wire.NewWriter()
	w.Uvarint(tRequest)
	w.Uvarint(reqID)
	w.String(string(obj))
	w.Uvarint(uint64(op.Kind))
	w.String(string(op.Arg))
	w.Varint(op.Delta)
	return w.Bytes()
}

func decodeRequest(r *wire.Reader) (reqID uint64, obj model.ObjectID, op model.Operation, err error) {
	reqID = r.Uvarint()
	obj = model.ObjectID(r.String())
	op.Kind = model.OpKind(r.Uvarint())
	op.Arg = model.Value(r.String())
	op.Delta = r.Varint()
	return reqID, obj, op, r.Err()
}

func appendResponse(w *wire.Writer, reqID uint64, resp model.Response) {
	w.Uvarint(tResponse)
	w.Uvarint(reqID)
	b := uint64(0)
	if resp.OK {
		b = 1
	}
	w.Uvarint(b)
	w.Varint(resp.Count)
	if resp.Values == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(1)
		w.Uvarint(uint64(len(resp.Values)))
		for _, v := range resp.Values {
			w.String(string(v))
		}
	}
}

func decodeResponse(r *wire.Reader) (reqID uint64, resp model.Response, err error) {
	reqID = r.Uvarint()
	resp.OK = r.Uvarint() == 1
	resp.Count = r.Varint()
	if r.Uvarint() == 1 {
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
	return reqID, resp, r.Err()
}

// encodeStructuredReq encodes a tStats/tHistory request. The codec field
// trails the bare v1 request, so an old node ignores it and answers JSON; a
// new node answers in the requested codec. The compression offer trails
// the codec the same way (v4): an old node answers raw, a new node may
// wrap a floor-clearing reply (tHistoryRespB) in a tCompressed envelope.
func encodeStructuredReq(typ uint64, codec wire.CodecID, comp uint64) []byte {
	w := wire.NewWriter()
	w.Uvarint(typ)
	w.Uvarint(uint64(codec))
	w.Uvarint(comp)
	return w.Bytes()
}

// encodeStructuredReqShard is encodeStructuredReq with a trailing shard
// index (v5): a tHistory request for one shard's projection. Old nodes stop
// reading after the compression offer and answer their whole (single-shard)
// history, which is exactly shard 0's projection.
func encodeStructuredReqShard(typ uint64, codec wire.CodecID, comp uint64, shard uint64) []byte {
	w := wire.NewWriter()
	w.Uvarint(typ)
	w.Uvarint(uint64(codec))
	w.Uvarint(comp)
	w.Uvarint(shard)
	return w.Bytes()
}

func encodeEmpty(typ uint64) []byte {
	w := wire.NewWriter()
	w.Uvarint(typ)
	return w.Bytes()
}

// appendJSON encodes a structured-transfer frame holding a JSON body,
// appending the body bytes once via Raw.
func appendJSON(w *wire.Writer, typ uint64, data []byte) {
	w.Uvarint(typ)
	w.Uvarint(uint64(len(data)))
	w.Raw(data)
}
