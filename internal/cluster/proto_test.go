package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestHelloRoundTrip(t *testing.T) {
	w := wire.NewWriter()
	appendHello(w, 5, 4)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tHello {
		t.Fatalf("type = %d, want tHello", typ)
	}
	h, err := decodeHello(r)
	if err != nil {
		t.Fatal(err)
	}
	if h.From != 5 || h.Version != protoVersion || h.Shards != 4 {
		t.Fatalf("hello = %+v", h)
	}

	// A hello of another version decodes as far as the version and no
	// further: the acceptor needs the sender and the version to answer it,
	// and whatever follows is laid out by rules this build does not know.
	w = wire.NewWriter()
	w.Uvarint(7) // from
	w.Uvarint(5) // version
	w.Uvarint(1) // v5: codec, compression, shards
	w.Uvarint(1)
	w.Uvarint(4)
	h, err = decodeHello(wire.NewReader(w.Bytes()))
	if err != nil || h.From != 7 || h.Version != 5 || h.Shards != 0 {
		t.Fatalf("v5 hello = (%+v, %v), want from 7 at version 5 and nothing else read", h, err)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	w := wire.NewWriter()
	appendHelloAck(w, []uint64{42, 7, 0, 3})
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tHelloAck {
		t.Fatalf("type = %d, want tHelloAck", typ)
	}
	a, err := decodeHelloAck(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != protoVersion || !slices.Equal(a.Delivered, []uint64{42, 7, 0, 3}) {
		t.Fatalf("ack = %+v, want version %d, watermarks [42 7 0 3]", a, protoVersion)
	}

	// Another version's ack: the version is all that is read.
	w = wire.NewWriter()
	w.Uvarint(5)
	w.Uvarint(1)
	w.Uvarint(9)
	a, err = decodeHelloAck(wire.NewReader(w.Bytes()))
	if err != nil || a.Version != 5 || a.Delivered != nil {
		t.Fatalf("v5 ack = (%+v, %v), want version 5 and nothing else read", a, err)
	}

	// A shard count the frame cannot hold watermarks for is refused before
	// anything is allocated for it.
	w = wire.NewWriter()
	w.Uvarint(protoVersion)
	w.Uvarint(1 << 40)
	if a, err := decodeHelloAck(wire.NewReader(w.Bytes())); err == nil {
		t.Fatalf("implausible shard count accepted: %+v", a)
	}
}

func sameUpdates(t *testing.T, got, want []protoUpdate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d updates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Origin != want[i].Origin || got[i].Seq != want[i].Seq ||
			got[i].Lamport != want[i].Lamport || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("update %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// section is one shard's run in a tBatch frame.
type section struct {
	shard int
	us    []protoUpdate
}

// sendingEnd is what the sending end of one replication connection keeps of
// it, as serve does: each shard's run state and the stream under the batch
// frames, both from empty.
type sendingEnd struct {
	runs []runState
	lz   wire.StreamEncoder
}

func newSendingEnd(shards int) *sendingEnd { return &sendingEnd{runs: make([]runState, shards)} }

// receivingEnd is what the receiving end of one replication connection keeps
// of it, as serveReplication does.
type receivingEnd struct {
	runs     []runState
	lz       wire.StreamDecoder
	sections wire.Reader
}

func newReceivingEnd(shards int) *receivingEnd { return &receivingEnd{runs: make([]runState, shards)} }

// appendBatchFrame encodes a tBatch holding the given sections, in order,
// each against tx's state of its shard, and codes them through tx's stream,
// advancing both, as a link's drain pass does.
func appendBatchFrame(w *wire.Writer, tx *sendingEnd, secs ...section) {
	raw := wire.NewWriter()
	appendSections(raw, tx.runs, secs...)
	appendBatch(w, &tx.lz, raw.Bytes())
}

// appendSections encodes the body of a tBatch, as its stream decodes to it:
// the given sections, in order, each against runs, which it advances.
func appendSections(w *wire.Writer, runs []runState, secs ...section) {
	for _, sec := range secs {
		w.Uvarint(uint64(sec.shard))
		appendRun(w, &runs[sec.shard], sec.us)
	}
}

// readBatch decodes the rest of a tBatch frame of origin's link, whose type
// tag r has read, the way serveReplication does: through rx's stream to the
// frame's body, then section by section through rx's state of each shard,
// advancing both. It returns the sections in secs[:0], reusing each one's
// update slice, so a peer that reads frame after frame with one rx and one
// secs allocates nothing. The sections' payloads are views of rx's stream,
// valid until its next frame.
func readBatch(r *wire.Reader, rx *receivingEnd, origin model.ReplicaID, secs []section) ([]section, error) {
	body, err := decodeBatchBody(r, &rx.lz)
	if err != nil {
		return nil, err
	}
	rx.sections.Reset(body)
	return readSections(&rx.sections, rx.runs, origin, secs)
}

// readSections decodes a tBatch body section by section through runs, as
// readBatch does once the stream has decoded it.
func readSections(r *wire.Reader, runs []runState, origin model.ReplicaID, secs []section) ([]section, error) {
	secs = secs[:0]
	for more := true; more; more = r.Remaining() > 0 {
		if len(secs) < cap(secs) {
			secs = secs[:len(secs)+1]
		} else {
			secs = append(secs, section{})
		}
		sec := &secs[len(secs)-1]
		var err error
		if sec.shard, sec.us, err = decodeSection(r, runs, origin, sec.us); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

// TestShardBatchRoundTrip pins the shard-multiplexed replication frame: a
// tBatch holds a section per shard, each its index ahead of its run, and a
// run decodes against what the connection carried of that shard before —
// the first one on a connection from zero, so it reads absolute.
func TestShardBatchRoundTrip(t *testing.T) {
	a := []protoUpdate{
		{Origin: 2, Seq: 1, Lamport: 10, Payload: []byte("alpha")},
		{Origin: 2, Seq: 2, Lamport: 11, Payload: nil},
	}
	b := []protoUpdate{{Origin: 2, Seq: 7, Lamport: 4, Payload: []byte("beta")}}
	c := []protoUpdate{{Origin: 2, Seq: 3, Lamport: 40, Payload: []byte{0, 1, 2, 255}}}
	send, recv := newSendingEnd(4), newReceivingEnd(4)
	for _, frame := range [][]section{{{3, a}, {0, b}}, {{3, c}}} {
		w := wire.NewWriter()
		appendBatchFrame(w, send, frame...)
		r := wire.NewReader(w.Bytes())
		if typ := r.Uvarint(); typ != tBatch {
			t.Fatalf("type = %d, want tBatch", typ)
		}
		got, err := readBatch(r, recv, 2, nil)
		if err != nil || len(got) != len(frame) {
			t.Fatalf("decoded %d sections, err %v; want %d", len(got), err, len(frame))
		}
		for i := range frame {
			if got[i].shard != frame[i].shard {
				t.Fatalf("section %d is shard %d, want %d", i, got[i].shard, frame[i].shard)
			}
			sameUpdates(t, got[i].us, frame[i].us)
		}
	}
	if !slices.Equal(send.runs, recv.runs) || recv.runs[3] != (runState{seq: 3, lamport: 40}) {
		t.Fatalf("run state: sender %v, receiver %v; want both at shard 3 seq 3 stamp 40", send.runs, recv.runs)
	}
}

// TestBatchRoundTrip pins the one run codec tBatch and tRangeResp share: a
// range chunk is a run from the zero state behind its shard and origin, so
// its run bytes are a first tBatch section's, and it implies each seq and
// stamp as that section does: the run costs its count, a seq gap, and per
// update a stamp delta and the payload. A connection's first batch frame,
// whose body repeats nothing, goes through the stream as that body in one
// literal run: its type, rawLen, the literal's header, the body.
func TestBatchRoundTrip(t *testing.T) {
	us := []protoUpdate{
		{Origin: 2, Seq: 1, Lamport: 10, Payload: []byte("alpha")},
		{Origin: 2, Seq: 2, Lamport: 11, Payload: nil},
		{Origin: 2, Seq: 3, Lamport: 12, Payload: []byte{0, 1, 2, 255}},
	}
	body, batch, chunk := wire.NewWriter(), wire.NewWriter(), wire.NewWriter()
	appendSections(body, make([]runState, 4), section{3, us})
	appendBatchFrame(batch, newSendingEnd(4), section{3, us})
	appendRange(chunk, 3, 2, us)
	// A tBatch body: shard, run; tRangeResp: type, shard, origin, run.
	if run := body.Bytes()[1:]; !bytes.Equal(run, chunk.Bytes()[3:]) {
		t.Fatalf("tBatch body %x and tRangeResp %x do not share one run", body.Bytes(), chunk.Bytes())
	} else if len(run) != 2+3*2+9 {
		t.Fatalf("a run of 3 updates with 9 payload bytes is %d bytes (%x), want 17: a count, a seq gap, and per update a stamp delta and a length", len(run), run)
	}
	if want := append([]byte{tBatch, byte(body.Len()), byte(body.Len() << 1)}, body.Bytes()...); !bytes.Equal(batch.Bytes(), want) {
		t.Fatalf("a connection's first tBatch is %x, want %x: its body as one literal run", batch.Bytes(), want)
	}
	r := wire.NewReader(chunk.Bytes())
	r.Uvarint() // type
	shard, got, err := decodeRange(r, nil)
	if err != nil || shard != 3 {
		t.Fatalf("shard %d, err %v; want shard 3", shard, err)
	}
	sameUpdates(t, got, us)
	r = wire.NewReader(batch.Bytes())
	r.Uvarint()
	secs, err := readBatch(r, newReceivingEnd(4), 2, nil)
	if err != nil || len(secs) != 1 || secs[0].shard != 3 {
		t.Fatalf("batch: %+v, err %v; want one section of shard 3", secs, err)
	}
	sameUpdates(t, secs[0].us, us)
}

func TestBatchImplausibleCountRejected(t *testing.T) {
	for _, count := range []uint64{0, 1 << 40} {
		w := wire.NewWriter()
		w.Uvarint(0)     // shard
		w.Uvarint(count) // no run holds none, and none this many
		w.Uvarint(0)     // seq gap
		w.Raw([]byte{1, 0, 1, 0})
		r := wire.NewReader(w.Bytes())
		if secs, err := readSections(r, make([]runState, 1), 3, nil); err == nil {
			t.Fatalf("decoded %+v from a run of %d", secs, count)
		}
	}
	// A section for a shard the receiver does not have.
	w := wire.NewWriter()
	appendBatchFrame(w, newSendingEnd(3), section{2, []protoUpdate{{Seq: 1, Lamport: 1}}})
	r := wire.NewReader(w.Bytes())
	r.Uvarint()
	if secs, err := readBatch(r, newReceivingEnd(2), 3, nil); err == nil {
		t.Fatalf("decoded %+v for shard 2 of 2", secs)
	}
	// A body declared past the frame limit, refused before it is decoded.
	w = wire.NewWriter()
	w.Uvarint(wire.DefaultMaxFrame + 1)
	w.Raw([]byte{2, 0})
	var fse *wire.FrameSizeError
	if secs, err := readBatch(wire.NewReader(w.Bytes()), newReceivingEnd(1), 3, nil); !errors.As(err, &fse) {
		t.Fatalf("decoded %+v, err %v, from a body of %d bytes", secs, err, wire.DefaultMaxFrame+1)
	}
}

// TestStrictDecoders drives every handshake and control decoder over a
// valid frame, each truncation of it, and the frame with one byte appended:
// only the first may decode. A layout has exactly one valid length, which
// is what lets a version mismatch be detected instead of half-understood.
func TestStrictDecoders(t *testing.T) {
	body := func(build func(w *wire.Writer)) []byte {
		w := wire.NewWriter()
		build(w)
		return w.Bytes()[1:] // decoders run behind the type tag
	}
	us := []protoUpdate{{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}}}
	ms := []membership.Member{{ID: 1, Addr: "127.0.0.1:7001", Epoch: 3}}
	ds := []originDigest{{Origin: 1, Count: 3, Root: testHash(1, 1, nil)}}
	for _, tc := range []struct {
		name   string
		frame  []byte
		decode func(r *wire.Reader) error
	}{
		{"hello", body(func(w *wire.Writer) { appendHello(w, 2, 8) }),
			func(r *wire.Reader) error { _, err := decodeHello(r); return err }},
		{"hello-ack", body(func(w *wire.Writer) { appendHelloAck(w, []uint64{17, 0, 9}) }),
			func(r *wire.Reader) error { _, err := decodeHelloAck(r); return err }},
		{"join", body(func(w *wire.Writer) { appendJoin(w, joinReq{From: 2, Epoch: 3, Addr: "127.0.0.1:7002", Shards: 4}) }),
			func(r *wire.Reader) error { _, err := decodeJoin(r); return err }},
		{"join-ack", body(func(w *wire.Writer) { appendJoinAck(w, 4, ms) }),
			func(r *wire.Reader) error { _, _, _, err := decodeJoinAck(r, 3); return err }},
		{"gossip", body(func(w *wire.Writer) { appendGossip(w, 1, ms) }),
			func(r *wire.Reader) error { _, _, err := decodeGossip(r, 3); return err }},
		{"digest", body(func(w *wire.Writer) { appendDigest(w, tDigest, 2, ds) }),
			func(r *wire.Reader) error { _, _, err := decodeDigest(r, false); return err }},
		{"digest-resp", body(func(w *wire.Writer) { appendDigest(w, tDigestResp, 2, ds) }),
			func(r *wire.Reader) error { _, _, err := decodeDigest(r, true); return err }},
		{"range-resp", body(func(w *wire.Writer) { appendRange(w, 2, 1, us) }),
			func(r *wire.Reader) error { _, _, err := decodeRange(r, nil); return err }},
		{"stats-req", []byte{},
			func(r *wire.Reader) error { return r.End() }},
		{"history-req", body(func(w *wire.Writer) { appendHistoryReq(w, 3) }),
			func(r *wire.Reader) error { _, err := decodeHistoryReq(r); return err }},
		{"request", encodeRequest(9, "k", model.Write("v"))[1:],
			func(r *wire.Reader) error { _, _, _, err := decodeRequest(r); return err }},
		{"response", body(func(w *wire.Writer) { appendResponse(w, 9, model.Response{OK: true, Values: []model.Value{"v"}}) }),
			func(r *wire.Reader) error { _, _, err := decodeResponse(r); return err }},
		{"batch", body(func(w *wire.Writer) { appendBatchFrame(w, newSendingEnd(4), section{3, us}) }),
			func(r *wire.Reader) error { _, err := readBatch(r, newReceivingEnd(4), 1, nil); return err }},
		{"stats", body(func(w *wire.Writer) {
			w.Uvarint(tStatsResp)
			appendStats(w, Stats{Node: 1, Store: "lww", Shards: 2, ShardOps: []int64{3, 4}})
		}),
			func(r *wire.Reader) error { _, err := decodeStats(r); return err }},
		{"history", body(func(w *wire.Writer) {
			w.Uvarint(tHistoryResp)
			if err := appendHistory(w, History{Node: 2, N: 3, Store: "causal", Events: sampleEventsBinary()}); err != nil {
				t.Fatal(err)
			}
		}), func(r *wire.Reader) error { _, err := decodeHistory(r); return err }},
	} {
		if err := tc.decode(wire.NewReader(tc.frame)); err != nil {
			t.Errorf("%s: valid frame refused: %v", tc.name, err)
		}
		for cut := 0; cut < len(tc.frame); cut++ {
			if tc.decode(wire.NewReader(tc.frame[:cut])) == nil {
				t.Errorf("%s: decoded from the first %d of %d bytes", tc.name, cut, len(tc.frame))
			}
		}
		if tc.decode(wire.NewReader(append(tc.frame[:len(tc.frame):len(tc.frame)], 0))) == nil {
			t.Errorf("%s: decoded with a trailing byte", tc.name)
		}
	}
}

// TestResponseValueCountBoundary is the regression for the decodeResponse
// guard: a declared value count of exactly Remaining+1 slipped past the old
// check and allocated for a count the buffer cannot hold.
func TestResponseValueCountBoundary(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(1)                      // reqID
	w.Uvarint(respOK | respHasValues) // flags
	w.Uvarint(3)                      // declared values...
	w.Raw([]byte{0, 0})               // ...but only 2 bytes remain: 3 == Remaining+1
	r := wire.NewReader(w.Bytes())
	if _, _, err := decodeResponse(r); err == nil {
		t.Fatal("value count Remaining+1 accepted")
	}

	// The boundary itself must still work: n one-byte (empty) values.
	ok := wire.NewWriter()
	appendResponse(ok, 7, model.Response{OK: true, Values: []model.Value{"", ""}})
	r = wire.NewReader(ok.Bytes())
	r.Uvarint() // type
	id, resp, err := decodeResponse(r)
	if err != nil || id != 7 || len(resp.Values) != 2 {
		t.Fatalf("valid boundary response: id %d resp %+v err %v", id, resp, err)
	}
}

// TestResponseRoundTrip: every field a response can carry survives, nil
// Values stays apart from empty ones, and a flag byte or id outside the
// layout is refused.
func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range []model.Response{
		model.OKResponse(),
		{},
		model.CountResponse(-7),
		model.ReadResponse(nil),
		{OK: true, Values: []model.Value{}},
		{OK: true, Count: 3, Values: []model.Value{"a", ""}},
	} {
		w := wire.NewWriter()
		appendResponse(w, reqIDs-1, resp)
		r := wire.NewReader(w.Bytes())
		r.Uvarint() // type
		id, got, err := decodeResponse(r)
		if err != nil || id != reqIDs-1 || got.OK != resp.OK || got.Count != resp.Count ||
			(got.Values == nil) != (resp.Values == nil) || !slices.Equal(got.Values, resp.Values) {
			t.Errorf("%+v decoded as (%d, %+v, %v)", resp, id, got, err)
		}
	}
	for _, body := range [][]byte{{reqIDs, 0}, {1, respHasValues << 1}} {
		if _, _, err := decodeResponse(wire.NewReader(body)); err == nil {
			t.Errorf("response body %x accepted", body)
		}
	}
	if _, _, _, err := decodeRequest(wire.NewReader(encodeRequest(reqIDs, "k", model.Read())[1:])); err == nil {
		t.Errorf("request id %d accepted", reqIDs)
	}
}

// TestWriteReplyIsFourBytes: the reply to a write is its frame header, its
// type, the request's id and one flag byte. (With the full request id and a
// byte each for ok, count and the values' presence, it took 8 bytes once ids
// passed 16 383.)
func TestWriteReplyIsFourBytes(t *testing.T) {
	w := wire.NewWriter()
	w.BeginFrame()
	appendResponse(w, 100_000%reqIDs, model.OKResponse())
	frame, err := w.EndFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 4 {
		t.Fatalf("a write reply is %d bytes on the wire (%x), want 4", len(frame), frame)
	}
}

// encodeRequest is one tRequest payload in a buffer of its own.
func encodeRequest(reqID uint64, obj model.ObjectID, op model.Operation) []byte {
	w := wire.NewWriter()
	appendRequest(w, reqID, obj, op)
	return w.Bytes()
}

// appendHistory is the reference encoding of a history, from decoded events:
// identity, then the event count, then each event's record, then the shard
// identity. The records are those a serving shard writes for the events — a
// do record opened with room for a frontier of h.N entries, then closed; a
// send that follows its do in short form where the shard writes one — so a
// node's framing of its log (encodedHistory.appendTo) must agree with it byte
// for byte (TestHistoryFrameIsTheLogVerbatim).
func appendHistory(w *wire.Writer, h History) error {
	var l eventLog
	for _, ev := range h.Events {
		if ev.Kind == model.ActDo {
			l.openDo(ev.Lamport, ev.Object, ev.Op, h.N)
		}
		if _, _, _, err := l.append(ev); err != nil {
			return err
		}
	}
	l.snapshot(h).appendTo(w)
	return nil
}

func sampleEventsBinary() []Event {
	return []Event{
		{
			Kind: model.ActDo, Lamport: 4, Object: "x1",
			Op:       model.Operation{Kind: model.OpWrite, Arg: "v", Delta: -3},
			Rval:     model.Response{OK: true, Values: []model.Value{"a", ""}, Count: 2},
			Dot:      model.Dot{Origin: 1, Seq: 9},
			Frontier: []uint64{3, 0, 7},
		},
		{
			Kind: model.ActDo, Lamport: 5, Object: "x2",
			Op:   model.Operation{Kind: model.OpRead},
			Rval: model.Response{OK: true}, // nil Values must stay nil
		},
		{Kind: model.ActSend, Lamport: 6, Origin: 1, Seq: 10, Payload: []byte{1, 2, 3}},
		{Kind: model.ActSend, Lamport: 7, Origin: 1, Seq: 11}, // nil payload
		{Kind: model.ActReceive, Lamport: 8, Origin: 0, Seq: 4, Payload: []byte("remote")},
	}
}

// TestEventBinaryRoundTrip checks the binary event codec against the JSON
// one: every event must round-trip to the same JSON form, which is how the
// audit pipeline will see it after a history transfer or journal recovery.
func TestEventBinaryRoundTrip(t *testing.T) {
	for i, ev := range sampleEventsBinary() {
		w := wire.NewWriter()
		if err := AppendEventBinary(w, ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		r := wire.NewReader(w.Bytes())
		got, err := DecodeEventBinary(r)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("event %d: %d bytes left over", i, r.Remaining())
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(ev)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("event %d:\n got %s\nwant %s", i, gj, wj)
		}
	}
}

func TestHistoryBinaryRoundTrip(t *testing.T) {
	h := History{Node: 2, N: 3, Store: "causal", Events: sampleEventsBinary()}
	w := wire.NewWriter()
	if err := appendHistory(w, h); err != nil {
		t.Fatal(err)
	}
	got, err := decodeHistory(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(h)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("history:\n got %s\nwant %s", gj, wj)
	}
}

// testHash is a fixed 32-byte value for frames that carry hashes: SHA-256
// over origin, seq and payload length as big-endian uint64s, then the
// payload — the layout the golden digest vector was generated with.
func testHash(origin, seq uint64, payload []byte) membership.Hash {
	b := binary.BigEndian.AppendUint64(nil, origin)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	return sha256.Sum256(append(b, payload...))
}

// TestGoldenWireVectors pins the wire format byte-for-byte against files in
// testdata/golden: a refactor that changes any encoding must consciously
// regenerate them (UPDATE_GOLDEN=1 go test ./internal/cluster/) and bump
// protoVersion, because a silent change breaks running clusters and old
// journals.
func TestGoldenWireVectors(t *testing.T) {
	enc := func(f func(w *wire.Writer)) []byte {
		w := wire.NewWriter()
		f(w)
		return w.Bytes()
	}
	vectors := []struct {
		name string
		data []byte
	}{
		{"hello", enc(func(w *wire.Writer) { appendHello(w, 2, 8) })},
		{"hello_ack", enc(func(w *wire.Writer) { appendHelloAck(w, []uint64{17, 0, 9, 2}) })},
		// Two batch frames of one connection, back to back: the second
		// carries again what the first did, as a back-reference.
		{"batch", enc(func(w *wire.Writer) {
			tx := &sendingEnd{runs: []runState{{seq: 3, lamport: 290}, {}, {}, {seq: 6, lamport: 280}}}
			appendBatchFrame(w, tx,
				section{0, []protoUpdate{{Origin: 1, Seq: 4, Lamport: 299, Payload: []byte{0x0f}}}},
				section{3, []protoUpdate{
					{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte("key-0042=cafe")},
					{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
				}})
			appendBatchFrame(w, tx,
				section{3, []protoUpdate{{Origin: 1, Seq: 9, Lamport: 302, Payload: []byte("key-0042=babe")}}})
		})},
		{"request", encodeRequest(77, "k000042", model.Write("0123456789abcdef"))},
		{"response_write", enc(func(w *wire.Writer) { appendResponse(w, 77, model.OKResponse()) })},
		{"response_read", enc(func(w *wire.Writer) {
			appendResponse(w, 77, model.Response{OK: true, Values: []model.Value{"a", "bc"}})
		})},
		{"history_req", enc(func(w *wire.Writer) { appendHistoryReq(w, 3) })},
		{"event_do", enc(func(w *wire.Writer) {
			if err := AppendEventBinary(w, sampleEventsBinary()[0]); err != nil {
				t.Fatal(err)
			}
		})},
		{"event_send", enc(func(w *wire.Writer) {
			if err := AppendEventBinary(w, sampleEventsBinary()[2]); err != nil {
				t.Fatal(err)
			}
		})},
		{"join", enc(func(w *wire.Writer) {
			appendJoin(w, joinReq{From: 2, Epoch: 3, Addr: "127.0.0.1:7002", Shards: 4})
		})},
		{"join_ack", enc(func(w *wire.Writer) {
			appendJoinAck(w, 4, []membership.Member{{ID: 1, Addr: "127.0.0.1:7001", Epoch: 3}})
		})},
		{"digest", enc(func(w *wire.Writer) {
			appendDigest(w, tDigest, 3, []originDigest{
				{Origin: 0, Count: 33, Root: testHash(0, 1, []byte("x"))},
				{Origin: 1, Count: 0},
			})
		})},
		{"range_resp", enc(func(w *wire.Writer) {
			appendRange(w, 3, 1, []protoUpdate{
				{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}},
				{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
			})
		})},
		{"compressed_envelope", func() []byte {
			raw := enc(func(w *wire.Writer) {
				appendRange(w, 3, 1, []protoUpdate{
					{Origin: 1, Seq: 7, Lamport: 300, Payload: bytes.Repeat([]byte("abcdefgh"), 128)},
				})
			})
			env, frame := maybeCompressPayload(raw, new(wire.Deflater))
			if env == nil {
				t.Fatal("compressed_envelope vector did not compress")
			}
			b := append([]byte(nil), wire.FramePayload(frame)...)
			wire.PutWriter(env)
			return b
		}()},
		// Every field distinct and non-zero, so that two fields swapped in
		// the codec change the bytes.
		{"stats", enc(func(w *wire.Writer) {
			appendStats(w, Stats{
				Node: 2, Store: "kbuffer", Options: store.Options{K: 3},
				Ops: 101, Sends: 102, Receives: 103, Events: 306,
				BytesOut: 70001, FramesOut: 105, BatchFrames: 106,
				Retransmits: 7, Reconnects: 8, DupFrames: 9, GapFrames: 10,
				Violations: 11, Quiesced: true,
				BatchBytes: 5012, BatchRawBytes: 6013, BatchPayloadBytes: 4014,
				Members: 3, SyncPulled: 15, SyncServed: 16, FailedLinks: 17,
				Shards:   2,
				ShardOps: []int64{60, 41}, ShardSends: []int64{62, 40},
				ShardReceives: []int64{64, 39}, ShardEvents: []int64{186, 120},
			})
		})},
	}
	dir := filepath.Join("testdata", "golden")
	update := os.Getenv("UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vectors {
		path := filepath.Join(dir, v.name+".hex")
		got := hex.EncodeToString(v.data) + "\n"
		if update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run UPDATE_GOLDEN=1 go test to generate)", v.name, err)
		}
		if got != string(want) {
			t.Errorf("%s: encoding changed:\n got %s want %s", v.name, got, want)
		}
	}
}

// FuzzDecodeBatch throws two arbitrary tBatch bodies — what a frame's
// stream decodes to — at the section decoder, in sequence over one
// connection's run state, as serveReplication reads them: it must never
// panic or over-allocate, and every body it accepts must re-encode, against
// the same state, to the same sections (decode∘encode fixed point). Then two
// frames generated from seed — random shards, seqs, stamps and payloads,
// over the state the bodies leave — must round-trip whole, through one
// connection's stream.
func FuzzDecodeBatch(f *testing.F) {
	const shards = 4
	body := func(runs []runState, secs ...section) []byte {
		w := wire.NewWriter()
		appendSections(w, runs, secs...)
		return w.Bytes()
	}
	runs := make([]runState, shards)
	first := body(runs, section{0, []protoUpdate{{Seq: 1, Lamport: 1, Payload: []byte("p")}}})
	second := body(runs,
		section{0, []protoUpdate{{Seq: 2, Lamport: 5, Payload: nil}}},
		section{3, []protoUpdate{
			{Seq: 40, Lamport: 6, Payload: nil},
			{Seq: 41, Lamport: 9, Payload: bytes.Repeat([]byte{7}, 100)},
		}})
	f.Add(first, second, uint64(1))
	f.Add(second, first, uint64(2))
	f.Add([]byte{0, 1 << 6, 0, 0}, []byte{}, uint64(3)) // an implausible count
	f.Add([]byte{}, []byte{0x00}, uint64(4))
	f.Add([]byte{shards, 1, 0, 1, 0}, first, uint64(5)) // a shard out of range
	f.Fuzz(func(t *testing.T, a, b []byte, seed uint64) {
		recv, enc := make([]runState, shards), make([]runState, shards)
		for _, frame := range [][]byte{a, b} {
			before := slices.Clone(recv)
			secs, err := readSections(wire.NewReader(frame), recv, 1, nil)
			if err != nil {
				copy(recv, before) // the connection would hang up; keep reading from the state before
				continue
			}
			copy(enc, before)
			again, err := readSections(wire.NewReader(body(enc, secs...)), before, 1, nil)
			if err != nil || len(again) != len(secs) {
				t.Fatalf("re-encoded body decodes to %d sections (want %d), err %v", len(again), len(secs), err)
			}
			for i := range secs {
				if again[i].shard != secs[i].shard {
					t.Fatalf("section %d re-decodes as shard %d, want %d", i, again[i].shard, secs[i].shard)
				}
				sameUpdates(t, again[i].us, secs[i].us)
			}
			if !slices.Equal(before, recv) || !slices.Equal(enc, recv) {
				t.Fatalf("run state after the re-encoded body %v (sender %v), want %v", before, enc, recv)
			}
		}

		rng := rand.New(rand.NewSource(int64(seed)))
		send, got := &sendingEnd{runs: slices.Clone(recv)}, &receivingEnd{runs: slices.Clone(recv)}
		for k := 0; k < 2; k++ {
			var secs []section
			for n := 1 + rng.Intn(shards); n > 0; n-- {
				sec := section{shard: rng.Intn(shards)}
				seq, lamport := rng.Uint64(), rng.Uint64()
				for i := 1 + rng.Intn(4); i > 0; i-- {
					p := make([]byte, rng.Intn(8))
					if len(a) > 0 {
						p = append(p, a[:rng.Intn(len(a))]...) // bytes an earlier frame may carry too
					}
					sec.us = append(sec.us, protoUpdate{Origin: 1, Seq: seq, Lamport: lamport, Payload: p})
					seq, lamport = seq+1, lamport+uint64(rng.Intn(300))
				}
				secs = append(secs, sec)
			}
			w := wire.NewWriter()
			appendBatchFrame(w, send, secs...)
			r := wire.NewReader(w.Bytes())
			r.Uvarint()
			dec, err := readBatch(r, got, 1, nil)
			if err != nil || len(dec) != len(secs) {
				t.Fatalf("generated frame %d decodes to %d sections (want %d), err %v", k, len(dec), len(secs), err)
			}
			for i := range secs {
				if dec[i].shard != secs[i].shard {
					t.Fatalf("generated section %d decodes as shard %d, want %d", i, dec[i].shard, secs[i].shard)
				}
				sameUpdates(t, dec[i].us, secs[i].us)
			}
		}
		if !slices.Equal(send.runs, got.runs) {
			t.Fatalf("run state after the generated frames: sender %v, receiver %v", send.runs, got.runs)
		}
	})
}

// FuzzDecodeEventBinary guards the event decoder the journal and history
// transfers rely on.
func FuzzDecodeEventBinary(f *testing.F) {
	for _, ev := range sampleEventsBinary() {
		w := wire.NewWriter()
		if err := AppendEventBinary(w, ev); err != nil {
			f.Fatal(err)
		}
		f.Add(w.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		ev, err := DecodeEventBinary(wire.NewReader(b))
		if err != nil {
			return
		}
		w := wire.NewWriter()
		if err := AppendEventBinary(w, ev); err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
		again, err := DecodeEventBinary(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded event does not decode: %v", err)
		}
		gj, _ := json.Marshal(again)
		wj, _ := json.Marshal(ev)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("event drifted:\n%s\n%s", gj, wj)
		}
	})
}

var _ = fmt.Sprintf // keep fmt available for debugging edits
