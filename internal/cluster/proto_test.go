package cluster

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

func TestHelloV2RoundTrip(t *testing.T) {
	w := wire.NewWriter()
	appendHello(w, 5, wire.CodecBinary, wire.CompFlate, 4)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tHello {
		t.Fatalf("type = %d, want tHello", typ)
	}
	h, err := decodeHello(r)
	if err != nil {
		t.Fatal(err)
	}
	if h.From != 5 || h.Version != helloVersion || h.Codec != wire.CodecBinary || h.Comp != wire.CompFlate || h.Shards != 4 {
		t.Fatalf("hello = %+v", h)
	}
}

// TestHelloV3Compat pins the v4 extension's back-compat: a v3-shaped hello
// (version and codec, no compression ID) decodes with CompNone.
func TestHelloV3Compat(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(uint64(7))
	w.Uvarint(3)
	w.Uvarint(uint64(wire.CodecBinary))
	h, err := decodeHello(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.From != 7 || h.Version != 3 || h.Codec != wire.CodecBinary || h.Comp != wire.CompNone || h.Shards != 1 {
		t.Fatalf("v3 hello = %+v, want comp none, one shard", h)
	}
}

// TestHelloV1Compat pins the compatibility contract in both directions: a
// bare v1 hello decodes as version 1 with the JSON codec, and a v2 hello's
// From field sits exactly where a v1 receiver reads it.
func TestHelloV1Compat(t *testing.T) {
	h, err := decodeHello(wire.NewReader(encodeHello(3)[1:])) // strip type tag
	if err != nil {
		t.Fatal(err)
	}
	if h.From != 3 || h.Version != 1 || h.Codec != wire.CodecJSON {
		t.Fatalf("v1 hello = %+v, want {3 1 json}", h)
	}

	w := wire.NewWriter()
	appendHello(w, 3, wire.CodecBinary, wire.CompFlate, 1)
	r := wire.NewReader(w.Bytes())
	r.Uvarint() // type, as the v1 receiver reads it
	if from := r.Uvarint(); from != 3 || r.Err() != nil {
		t.Fatalf("v1 read of v2 hello: from = %d, err %v", from, r.Err())
	}
	// Whatever trails is the extension the v1 receiver ignores.
}

func TestHelloAckRoundTrip(t *testing.T) {
	w := wire.NewWriter()
	appendHelloAck(w, wire.CodecBinary, 42, wire.CompFlate, 4, []uint64{42, 7, 0, 3})
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tHelloAck {
		t.Fatalf("type = %d, want tHelloAck", typ)
	}
	a, err := decodeHelloAck(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.Codec != wire.CodecBinary || a.Delivered != 42 || a.Comp != wire.CompFlate || a.Shards != 4 {
		t.Fatalf("ack = %+v, want (binary, 42, flate, 4 shards)", a)
	}
	if len(a.ShardDelivered) != 4 || a.ShardDelivered[0] != 42 || a.ShardDelivered[1] != 7 ||
		a.ShardDelivered[2] != 0 || a.ShardDelivered[3] != 3 {
		t.Fatalf("shard watermarks = %v, want [42 7 0 3]", a.ShardDelivered)
	}

	// A v2 ack (no trailing watermark) still decodes, with delivered 0:
	// the dialer then offers its full backlog and cumulative dedup absorbs
	// the re-offers, exactly the pre-v3 behavior. No compression ID either,
	// so the link stays uncompressed, and no shard count, so single-shard.
	w = wire.NewWriter()
	w.Uvarint(helloVersion)
	w.Uvarint(uint64(wire.CodecJSON))
	a, err = decodeHelloAck(wire.NewReader(w.Bytes()))
	if err != nil || a.Codec != wire.CodecJSON || a.Delivered != 0 || a.Comp != wire.CompNone || a.Shards != 1 {
		t.Fatalf("v2 ack = (%+v, %v), want (json, 0, none, 1 shard)", a, err)
	}

	// A v3 ack (watermark but no compression ID) also decodes with CompNone
	// and one shard.
	w = wire.NewWriter()
	w.Uvarint(helloVersion)
	w.Uvarint(uint64(wire.CodecBinary))
	w.Uvarint(9)
	a, err = decodeHelloAck(wire.NewReader(w.Bytes()))
	if err != nil || a.Codec != wire.CodecBinary || a.Delivered != 9 || a.Comp != wire.CompNone || a.Shards != 1 {
		t.Fatalf("v3 ack = (%+v, %v), want (binary, 9, none, 1 shard)", a, err)
	}

	// A v4 ack (compression ID but no shard count) also decodes single-shard.
	w = wire.NewWriter()
	w.Uvarint(helloVersion)
	w.Uvarint(uint64(wire.CodecBinary))
	w.Uvarint(9)
	w.Uvarint(wire.CompFlate)
	a, err = decodeHelloAck(wire.NewReader(w.Bytes()))
	if err != nil || a.Comp != wire.CompFlate || a.Shards != 1 || a.ShardDelivered != nil {
		t.Fatalf("v4 ack = (%+v, %v), want (flate, 1 shard, no watermarks)", a, err)
	}
}

// TestShardBatchRoundTrip pins the v5 shard-multiplexed frames: a
// tShardBatch carries the shard index ahead of the tBatch layout, and a
// tShardAck pairs the shard with its cumulative ack.
func TestShardBatchRoundTrip(t *testing.T) {
	us := []protoUpdate{
		{Origin: 2, Seq: 1, Lamport: 10, Payload: []byte("alpha")},
		{Origin: 2, Seq: 2, Lamport: 11, Payload: nil},
	}
	w := wire.NewWriter()
	appendShardBatch(w, 3, 2, us)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tShardBatch {
		t.Fatalf("type = %d, want tShardBatch", typ)
	}
	shard, got, err := decodeShardBatch(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shard != 3 || len(got) != len(us) {
		t.Fatalf("shard %d with %d updates, want shard 3 with %d", shard, len(got), len(us))
	}
	for i := range us {
		if got[i].Origin != us[i].Origin || got[i].Seq != us[i].Seq ||
			got[i].Lamport != us[i].Lamport || !bytes.Equal(got[i].Payload, us[i].Payload) {
			t.Fatalf("update %d = %+v, want %+v", i, got[i], us[i])
		}
	}

	w = wire.NewWriter()
	appendShardAck(w, 5, 99)
	r = wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tShardAck {
		t.Fatalf("type = %d, want tShardAck", typ)
	}
	s, cum, err := decodeShardAck(r)
	if err != nil || s != 5 || cum != 99 {
		t.Fatalf("shard ack = (%d, %d, %v), want (5, 99, nil)", s, cum, err)
	}
}

func TestNegotiateComp(t *testing.T) {
	for _, tc := range []struct {
		a, b, want uint64
	}{
		{wire.CompFlate, wire.CompFlate, wire.CompFlate},
		{wire.CompFlate, wire.CompNone, wire.CompNone},
		{wire.CompNone, wire.CompFlate, wire.CompNone},
		{wire.CompNone, wire.CompNone, wire.CompNone},
		{wire.CompFlate, 7, wire.CompFlate}, // newer peer: min wins
		{7, 9, wire.CompNone},               // both unknown: off
	} {
		if got := negotiateComp(tc.a, tc.b); got != tc.want {
			t.Fatalf("negotiateComp(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNegotiateCodec(t *testing.T) {
	for _, tc := range []struct {
		a, b, want wire.CodecID
	}{
		{wire.CodecBinary, wire.CodecBinary, wire.CodecBinary},
		{wire.CodecBinary, wire.CodecJSON, wire.CodecJSON},
		{wire.CodecJSON, wire.CodecBinary, wire.CodecJSON},
		{wire.CodecJSON, wire.CodecJSON, wire.CodecJSON},
		{wire.CodecBinary, wire.CodecID(99), wire.CodecBinary}, // newer peer: min wins
		{wire.CodecID(99), wire.CodecID(98), wire.CodecJSON},   // both unknown: fallback
	} {
		if got := negotiateCodec(tc.a, tc.b); got != tc.want {
			t.Fatalf("negotiateCodec(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	us := []protoUpdate{
		{Origin: 2, Seq: 1, Lamport: 10, Payload: []byte("alpha")},
		{Origin: 2, Seq: 2, Lamport: 11, Payload: nil},
		{Origin: 2, Seq: 3, Lamport: 12, Payload: []byte{0, 1, 2, 255}},
	}
	w := wire.NewWriter()
	appendBatch(w, 2, us)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tBatch {
		t.Fatalf("type = %d, want tBatch", typ)
	}
	got, err := decodeBatch(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(us) {
		t.Fatalf("decoded %d updates, want %d", len(got), len(us))
	}
	for i := range us {
		if got[i].Origin != us[i].Origin || got[i].Seq != us[i].Seq ||
			got[i].Lamport != us[i].Lamport || !bytes.Equal(got[i].Payload, us[i].Payload) {
			t.Fatalf("update %d = %+v, want %+v", i, got[i], us[i])
		}
	}
}

func TestBatchImplausibleCountRejected(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(3)       // origin
	w.Uvarint(1 << 40) // absurd count
	r := wire.NewReader(w.Bytes())
	if us, err := decodeBatch(r, nil); err == nil {
		t.Fatalf("decoded %d updates from implausible count", len(us))
	}
}

// TestResponseValueCountBoundary is the regression for the decodeResponse
// guard: a declared value count of exactly Remaining+1 slipped past the old
// check and allocated for a count the buffer cannot hold.
func TestResponseValueCountBoundary(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(1)        // reqID
	w.Uvarint(1)        // ok
	w.Varint(0)         // count
	w.Uvarint(1)        // hasValues
	w.Uvarint(3)        // declared values...
	w.Raw([]byte{0, 0}) // ...but only 2 bytes remain: 3 == Remaining+1
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
		Node: 1, Store: "lww", Codec: "binary",
		Ops: 100, Sends: 40, Receives: 38, Events: 178,
		BytesOut: 4096, FramesOut: 52, Retransmits: 2, Reconnects: 1,
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

	// A sharded node's stats carry the per-shard breakdowns (trailing v5
	// extension) and must survive the round trip too.
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

// TestGoldenWireVectors pins the wire format byte-for-byte against files in
// testdata/golden: a refactor that changes any encoding must consciously
// regenerate them (UPDATE_GOLDEN=1 go test ./internal/cluster/), because a
// silent change breaks mixed-version clusters and old journals.
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
		{"hello_v2", enc(func(w *wire.Writer) { appendHello(w, 2, wire.CodecBinary, wire.CompFlate, 1) })},
		{"hello_ack", enc(func(w *wire.Writer) { appendHelloAck(w, wire.CodecJSON, 17, wire.CompFlate, 1, nil) })},
		{"hello_sharded", enc(func(w *wire.Writer) { appendHello(w, 2, wire.CodecBinary, wire.CompFlate, 8) })},
		{"hello_ack_sharded", enc(func(w *wire.Writer) {
			appendHelloAck(w, wire.CodecBinary, 17, wire.CompFlate, 4, []uint64{17, 0, 9, 2})
		})},
		{"shard_batch", enc(func(w *wire.Writer) {
			appendShardBatch(w, 3, 1, []protoUpdate{
				{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}},
				{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
			})
		})},
		{"shard_ack", enc(func(w *wire.Writer) { appendShardAck(w, 3, 130) })},
		{"update", enc(func(w *wire.Writer) {
			appendUpdate(w, protoUpdate{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}})
		})},
		{"batch", enc(func(w *wire.Writer) {
			appendBatch(w, 1, []protoUpdate{
				{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}},
				{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
			})
		})},
		{"ack", encodeAck(130)},
		{"stats_req_binary", encodeStructuredReq(tStats, wire.CodecBinary, wire.CompFlate)},
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
			appendJoin(w, joinReq{From: 2, Epoch: 3, Addr: "127.0.0.1:7002", Codec: wire.CodecBinary, Comp: wire.CompFlate})
		})},
		{"range_req_windowed", enc(func(w *wire.Writer) {
			appendRangeReq(w, 1, 40, 25, 8)
		})},
		{"digest", enc(func(w *wire.Writer) {
			appendDigest(w, tDigest, []originDigest{
				{Origin: 0, Count: 33, Root: membership.HashUpdate(0, 1, []byte("x"))},
				{Origin: 1, Count: 0},
			})
		})},
		{"range_resp", enc(func(w *wire.Writer) {
			appendRangeResp(w, 1, []protoUpdate{
				{Origin: 1, Seq: 7, Lamport: 300, Payload: []byte{0xca, 0xfe}},
				{Origin: 1, Seq: 8, Lamport: 301, Payload: []byte{0xba, 0xbe, 0x00}},
			})
		})},
		{"compressed_envelope", func() []byte {
			raw := enc(func(w *wire.Writer) {
				appendRangeResp(w, 1, []protoUpdate{
					{Origin: 1, Seq: 7, Lamport: 300, Payload: bytes.Repeat([]byte("abcdefgh"), 128)},
				})
			})
			env := maybeCompressPayload(raw, wire.CompFlate)
			if env == nil {
				t.Fatal("compressed_envelope vector did not compress")
			}
			b := append([]byte(nil), env.Bytes()...)
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
		appendBatch(w, 0, []protoUpdate{{Origin: 0, Seq: 1, Lamport: 1, Payload: []byte("p")}})
	})[1:]) // bodies only: the caller strips the type tag
	f.Add(seed(func(w *wire.Writer) {
		appendBatch(w, 2, []protoUpdate{
			{Origin: 2, Seq: 1, Lamport: 5, Payload: nil},
			{Origin: 2, Seq: 2, Lamport: 6, Payload: bytes.Repeat([]byte{7}, 100)},
		})
	})[1:])
	f.Add(seed(func(w *wire.Writer) {
		w.Uvarint(1)
		w.Uvarint(1 << 40) // implausible count
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		us, err := decodeBatch(wire.NewReader(b), nil)
		if err != nil {
			return
		}
		if len(us) == 0 {
			return
		}
		w := wire.NewWriter()
		appendBatch(w, us[0].Origin, us)
		r := wire.NewReader(w.Bytes())
		if typ := r.Uvarint(); typ != tBatch {
			t.Fatalf("re-encode type = %d", typ)
		}
		again, err := decodeBatch(r, nil)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(us) {
			t.Fatalf("re-decode %d updates, want %d", len(again), len(us))
		}
		for i := range us {
			if again[i].Seq != us[i].Seq || again[i].Lamport != us[i].Lamport ||
				!bytes.Equal(again[i].Payload, us[i].Payload) {
				t.Fatalf("update %d drifted: %+v vs %+v", i, again[i], us[i])
			}
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
