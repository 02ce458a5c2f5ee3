package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/membership"
	"repro/internal/model"
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

// TestShardBatchRoundTrip pins the shard-multiplexed replication frame: a
// tBatch carries the shard index ahead of the update body.
func TestShardBatchRoundTrip(t *testing.T) {
	us := []protoUpdate{
		{Origin: 2, Seq: 1, Lamport: 10, Payload: []byte("alpha")},
		{Origin: 2, Seq: 2, Lamport: 11, Payload: nil},
	}
	w := wire.NewWriter()
	appendBatch(w, tBatch, 3, 2, us)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tBatch {
		t.Fatalf("type = %d, want tBatch", typ)
	}
	shard, got, err := decodeBatch(r, nil)
	if err != nil || shard != 3 {
		t.Fatalf("shard %d, err %v; want shard 3", shard, err)
	}
	sameUpdates(t, got, us)
}

// TestBatchRoundTrip pins the one body tBatch and tRangeResp share: the two
// frames differ in their type tag only, and decodeBatch reads either.
func TestBatchRoundTrip(t *testing.T) {
	us := []protoUpdate{
		{Origin: 2, Seq: 1, Lamport: 10, Payload: []byte("alpha")},
		{Origin: 2, Seq: 2, Lamport: 11, Payload: nil},
		{Origin: 2, Seq: 3, Lamport: 12, Payload: []byte{0, 1, 2, 255}},
	}
	batch, chunk := wire.NewWriter(), wire.NewWriter()
	appendBatch(batch, tBatch, 3, 2, us)
	appendBatch(chunk, tRangeResp, 3, 2, us)
	if !bytes.Equal(batch.Bytes()[1:], chunk.Bytes()[1:]) {
		t.Fatalf("tBatch %x and tRangeResp %x do not share one body", batch.Bytes(), chunk.Bytes())
	}
	for _, w := range []*wire.Writer{batch, chunk} {
		r := wire.NewReader(w.Bytes())
		r.Uvarint() // type
		shard, got, err := decodeBatch(r, nil)
		if err != nil || shard != 3 {
			t.Fatalf("shard %d, err %v; want shard 3", shard, err)
		}
		sameUpdates(t, got, us)
	}
}

func TestBatchImplausibleCountRejected(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(0)       // shard
	w.Uvarint(3)       // origin
	w.Uvarint(1 << 40) // absurd count
	r := wire.NewReader(w.Bytes())
	if _, us, err := decodeBatch(r, nil); err == nil {
		t.Fatalf("decoded %d updates from implausible count", len(us))
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
		{"range-resp", body(func(w *wire.Writer) { appendBatch(w, tRangeResp, 2, 1, us) }),
			func(r *wire.Reader) error { _, _, err := decodeBatch(r, nil); return err }},
		{"stats-req", []byte{},
			func(r *wire.Reader) error { return r.End() }},
		{"history-req", body(func(w *wire.Writer) { appendHistoryReq(w, 3) }),
			func(r *wire.Reader) error { _, err := decodeHistoryReq(r); return err }},
		{"request", encodeRequest(9, "k", model.Write("v"))[1:],
			func(r *wire.Reader) error { _, _, _, err := decodeRequest(r); return err }},
		{"response", body(func(w *wire.Writer) { appendResponse(w, 9, model.Response{OK: true, Values: []model.Value{"v"}}) }),
			func(r *wire.Reader) error { _, _, err := decodeResponse(r); return err }},
		{"batch", body(func(w *wire.Writer) { appendBatch(w, tBatch, 3, 1, us) }),
			func(r *wire.Reader) error { _, _, err := decodeBatch(r, nil); return err }},
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
// identity, then the event count, then each event, then the shard identity.
// A node frames its encoded log instead (encodedHistory.appendTo); the two
// must agree byte for byte (TestHistoryFrameIsTheLogVerbatim).
func appendHistory(w *wire.Writer, h History) error {
	w.Uvarint(uint64(h.Node))
	w.Uvarint(uint64(h.N))
	w.String(h.Store)
	w.Uvarint(uint64(len(h.Events)))
	for _, ev := range h.Events {
		if err := AppendEventBinary(w, ev); err != nil {
			return err
		}
	}
	w.Uvarint(uint64(h.Shard))
	w.Uvarint(uint64(h.Shards))
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

func TestStatsBinaryRoundTrip(t *testing.T) {
	s := Stats{
		Node: 1, Store: "lww",
		Ops: 100, Sends: 40, Receives: 38, Events: 178,
		BytesOut: 4096, FramesOut: 52, BatchFrames: 31, Retransmits: 2, Reconnects: 1,
		DupFrames: 3, GapFrames: 4, Violations: 0, Quiesced: true,
	}
	w := wire.NewWriter()
	appendStats(w, s)
	got, err := decodeStats(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(s)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("stats:\n got %s\nwant %s", gj, wj)
	}

	// A sharded node's stats carry the per-shard breakdowns and must survive
	// the round trip too.
	s.Shards = 2
	s.ShardOps = []int64{60, 40}
	s.ShardSends = []int64{25, 15}
	s.ShardReceives = []int64{20, 18}
	s.ShardEvents = []int64{105, 73}
	w = wire.NewWriter()
	appendStats(w, s)
	got, err = decodeStats(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gj, _ = json.Marshal(got)
	wj, _ = json.Marshal(s)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("sharded stats:\n got %s\nwant %s", gj, wj)
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
		{"batch", enc(func(w *wire.Writer) {
			appendBatch(w, tBatch, 3, 1, []protoUpdate{
				{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}},
				{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
			})
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
			appendBatch(w, tRangeResp, 3, 1, []protoUpdate{
				{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}},
				{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
			})
		})},
		{"compressed_envelope", func() []byte {
			raw := enc(func(w *wire.Writer) {
				appendBatch(w, tRangeResp, 3, 1, []protoUpdate{
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

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder: it must
// never panic or over-allocate, and everything it accepts must re-encode to
// an equivalent batch (decode∘encode fixed point).
func FuzzDecodeBatch(f *testing.F) {
	seed := func(f2 func(w *wire.Writer)) []byte {
		w := wire.NewWriter()
		f2(w)
		return w.Bytes()
	}
	f.Add(seed(func(w *wire.Writer) {
		appendBatch(w, tBatch, 0, 0, []protoUpdate{{Origin: 0, Seq: 1, Lamport: 1, Payload: []byte("p")}})
	})[1:]) // bodies only: the caller strips the type tag
	f.Add(seed(func(w *wire.Writer) {
		appendBatch(w, tRangeResp, 3, 2, []protoUpdate{
			{Origin: 2, Seq: 1, Lamport: 5, Payload: nil},
			{Origin: 2, Seq: 2, Lamport: 6, Payload: bytes.Repeat([]byte{7}, 100)},
		})
	})[1:])
	f.Add(seed(func(w *wire.Writer) {
		w.Uvarint(0)
		w.Uvarint(1)
		w.Uvarint(1 << 40) // implausible count
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		shard, us, err := decodeBatch(wire.NewReader(b), nil)
		if err != nil || len(us) == 0 {
			return
		}
		w := wire.NewWriter()
		appendBatch(w, tBatch, int(shard), us[0].Origin, us)
		r := wire.NewReader(w.Bytes())
		if typ := r.Uvarint(); typ != tBatch {
			t.Fatalf("re-encode type = %d", typ)
		}
		shard2, again, err := decodeBatch(r, nil)
		if err != nil || shard2 != shard {
			t.Fatalf("re-encoded batch decodes to shard %d (want %d), err %v", shard2, shard, err)
		}
		sameUpdates(t, again, us)
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
