package cluster

import (
	"bytes"
	"testing"

	"repro/internal/membership"
	"repro/internal/wire"
)

func TestJoinRoundTrip(t *testing.T) {
	in := joinReq{From: 2, Epoch: 5, Addr: "127.0.0.1:7002", Shards: 4}
	w := wire.NewWriter()
	appendJoin(w, in)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tJoin {
		t.Fatalf("type = %d, want tJoin", typ)
	}
	got, err := decodeJoin(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != in.From || got.Epoch != in.Epoch || got.Addr != in.Addr || got.Version != protoVersion || got.Shards != 4 {
		t.Fatalf("join = %+v, want %+v at version %d", got, in, protoVersion)
	}
}

func TestJoinAckRoundTrip(t *testing.T) {
	ms := []membership.Member{
		{ID: 0, Addr: "127.0.0.1:7000", Epoch: 1},
		{ID: 1, Addr: "127.0.0.1:7001", Epoch: 3, Left: true},
		{ID: 2, Epoch: 0}, // addr unknown yet
	}
	w := wire.NewWriter()
	appendJoinAck(w, 4, ms)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tJoinAck {
		t.Fatalf("type = %d, want tJoinAck", typ)
	}
	version, shards, got, err := decodeJoinAck(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if version != protoVersion || shards != 4 || len(got) != len(ms) {
		t.Fatalf("ack = (version %d, %d shards, %d members)", version, shards, len(got))
	}
	for i := range ms {
		if got[i] != ms[i] {
			t.Fatalf("member %d = %+v, want %+v", i, got[i], ms[i])
		}
	}
}

func TestGossipRoundTrip(t *testing.T) {
	ms := []membership.Member{{ID: 1, Addr: "x", Epoch: 2}}
	w := wire.NewWriter()
	appendGossip(w, 1, ms)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tGossip {
		t.Fatalf("type = %d, want tGossip", typ)
	}
	from, got, err := decodeGossip(r, 2)
	if err != nil || from != 1 || len(got) != 1 || got[0] != ms[0] {
		t.Fatalf("gossip = (r%d, %+v, %v)", from, got, err)
	}
}

func TestDecodeMembersRejectsHostileFrames(t *testing.T) {
	// Out-of-population ID: a corrupt frame must not grow the cluster.
	w := wire.NewWriter()
	appendMembers(w, []membership.Member{{ID: 7, Addr: "x"}})
	if _, err := decodeMembers(wire.NewReader(w.Bytes()), 3); err == nil {
		t.Fatal("member ID 7 accepted into a 3-replica cluster")
	}
	// Implausible count must be rejected before allocation.
	w = wire.NewWriter()
	w.Uvarint(1 << 40)
	if _, err := decodeMembers(wire.NewReader(w.Bytes()), 3); err == nil {
		t.Fatal("implausible member count accepted")
	}
}

func TestDigestRoundTrip(t *testing.T) {
	ds := []originDigest{
		{Origin: 0, Count: 64, Root: testHash(0, 1, []byte("a"))},
		{Origin: 1, Count: 0},
		{Origin: 2, Count: 7, Root: testHash(2, 7, nil)},
	}
	// Request layout (no prefix roots).
	w := wire.NewWriter()
	appendDigest(w, tDigest, 3, ds)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tDigest {
		t.Fatalf("type = %d, want tDigest", typ)
	}
	shard, got, err := decodeDigest(r, false)
	if err != nil || shard != 3 {
		t.Fatalf("shard %d, err %v; want shard 3", shard, err)
	}
	for i := range ds {
		want := ds[i]
		want.PrefixRoot = membership.Hash{}
		if got[i] != want {
			t.Fatalf("digest %d = %+v, want %+v", i, got[i], want)
		}
	}
	// Response layout carries the prefix roots too.
	ds[0].PrefixRoot = testHash(0, 2, []byte("b"))
	w = wire.NewWriter()
	appendDigest(w, tDigestResp, 3, ds)
	r = wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tDigestResp {
		t.Fatalf("type = %d, want tDigestResp", typ)
	}
	shard, got, err = decodeDigest(r, true)
	if err != nil || shard != 3 {
		t.Fatalf("shard %d, err %v; want shard 3", shard, err)
	}
	for i := range ds {
		if got[i] != ds[i] {
			t.Fatalf("digest %d = %+v, want %+v", i, got[i], ds[i])
		}
	}
}

func TestRangeRoundTrip(t *testing.T) {
	us := []protoUpdate{
		{Origin: 1, Seq: 41, Lamport: 90, Payload: []byte("p41")},
		{Origin: 1, Seq: 42, Lamport: 91, Payload: nil},
	}
	w := wire.NewWriter()
	appendRange(w, 5, 1, us)
	r := wire.NewReader(w.Bytes())
	if typ := r.Uvarint(); typ != tRangeResp {
		t.Fatalf("type = %d, want tRangeResp", typ)
	}
	shard, got, err := decodeRange(r, nil)
	if err != nil || shard != 5 || len(got) != len(us) {
		t.Fatalf("range resp: shard %d, %d updates, err %v", shard, len(got), err)
	}
	for i := range us {
		if got[i].Origin != us[i].Origin || got[i].Seq != us[i].Seq ||
			got[i].Lamport != us[i].Lamport || !bytes.Equal(got[i].Payload, us[i].Payload) {
			t.Fatalf("update %d = %+v, want %+v", i, got[i], us[i])
		}
	}
}

func TestRangeRespImplausibleCountRejected(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(0)       // shard
	w.Uvarint(1)       // origin
	w.Uvarint(1 << 40) // absurd count
	w.Uvarint(0)       // seq gap
	if _, us, err := decodeRange(wire.NewReader(w.Bytes()), nil); err == nil {
		t.Fatalf("decoded %d updates from implausible count", len(us))
	}
}

// FuzzDecodeDigest throws arbitrary bytes at the digest decoder (both
// layouts): it must never panic or over-allocate, and whatever it accepts
// must re-encode to an equivalent digest.
func FuzzDecodeDigest(f *testing.F) {
	seed := func(f2 func(w *wire.Writer)) []byte {
		w := wire.NewWriter()
		f2(w)
		return w.Bytes()
	}
	f.Add(seed(func(w *wire.Writer) {
		appendDigest(w, tDigest, 0, []originDigest{{Origin: 0, Count: 3, Root: testHash(0, 1, []byte("x"))}})
	})[1:], false)
	f.Add(seed(func(w *wire.Writer) {
		appendDigest(w, tDigestResp, 3, []originDigest{
			{Origin: 1, Count: 64, Root: testHash(1, 2, nil), PrefixRoot: testHash(1, 3, nil)},
			{Origin: 2, Count: 0},
		})
	})[1:], true)
	f.Add(seed(func(w *wire.Writer) {
		w.Uvarint(0)       // shard
		w.Uvarint(1 << 40) // implausible count
	}), false)
	f.Add([]byte{}, true)
	f.Add([]byte{0x01}, false)
	f.Fuzz(func(t *testing.T, b []byte, withPrefix bool) {
		shard, ds, err := decodeDigest(wire.NewReader(b), withPrefix)
		if err != nil {
			return
		}
		typ := uint64(tDigest)
		if withPrefix {
			typ = tDigestResp
		}
		w := wire.NewWriter()
		appendDigest(w, typ, int(shard), ds)
		r := wire.NewReader(w.Bytes())
		r.Uvarint() // type
		shard2, again, err := decodeDigest(r, withPrefix)
		if err != nil || shard2 != shard {
			t.Fatalf("re-encoded digest decodes to shard %d (want %d), err %v", shard2, shard, err)
		}
		if len(again) != len(ds) {
			t.Fatalf("re-decode %d digests, want %d", len(again), len(ds))
		}
		for i := range ds {
			want := ds[i]
			if !withPrefix {
				want.PrefixRoot = membership.Hash{}
			}
			if again[i] != want {
				t.Fatalf("digest %d drifted: %+v vs %+v", i, again[i], want)
			}
		}
	})
}
