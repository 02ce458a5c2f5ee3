package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"
)

// A write's send record leaves out the value its do record holds (cluster's
// short send form), and the journal holds the records the node's history
// does: these tests hold recovery to decoding them in order.

// writeNode boots node 0 of a three-node causal cluster, alone, journaling
// under dir, and has it write count values of growing length, each but the
// last followed by a read. It returns the node and the messages its writes
// broadcast, as a replica of the store alone makes them for the same
// operations: a reference no decoder of the node's records had a hand in.
func writeNode(t testing.TB, dir string, count int) (*cluster.Node, [][]byte) {
	t.Helper()
	cfg := meshConfigOf(t, &Storage{Dir: dir, Opts: Options{NoSync: true}}, 0, 3)
	nd, err := cluster.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin := cfg.Store.NewReplica(0, 3)
	var sent [][]byte
	do := func(key model.ObjectID, op model.Operation) {
		if _, err := nd.Do(key, op); err != nil {
			t.Fatal(err)
		}
		twin.Do(key, op)
		if p := twin.PendingMessage(); p != nil {
			sent = append(sent, slices.Clone(p))
			twin.OnSend()
		}
	}
	for i := 0; i < count; i++ {
		key := model.ObjectID(fmt.Sprintf("k%d", i%4))
		do(key, model.Write(model.Value(strings.Repeat(string(rune('a'+i%26)), 1+11*i))))
		if i < count-1 {
			do(key, model.Read())
		}
	}
	return nd, sent
}

// requireSent fails unless the send events of events carry sent, in order.
func requireSent(t testing.TB, events []cluster.Event, sent [][]byte) {
	t.Helper()
	i := 0
	for _, ev := range events {
		if ev.Kind != model.ActSend {
			continue
		}
		if i >= len(sent) || !bytes.Equal(ev.Payload, sent[i]) {
			t.Fatalf("send %d carries %q, the store broadcast %q", i+1, ev.Payload, sent[min(i, len(sent)-1)])
		}
		i++
	}
	if i != len(sent) {
		t.Fatalf("%d sends, the store broadcast %d messages", i, len(sent))
	}
}

// meshConfigOf is meshConfig for node id of n, with no peers.
func meshConfigOf(tb testing.TB, storage cluster.NodeStorage, id model.ReplicaID, n int) cluster.Config {
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return cluster.Config{ID: id, N: n, Store: st, Listen: "127.0.0.1:0", Storage: storage}
}

// fullBytes is what the journal would hold of events framed one by one in
// the standalone encoding, which writes every send whole.
func fullBytes(t testing.TB, events []cluster.Event) (n int) {
	for i, ev := range events {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		n += len(rec)
	}
	return n
}

// TestShortSendsReopen: a node's journal holds each write's value once, in
// its do record, and a close and reopen recovers the very events the node
// recorded.
func TestShortSendsReopen(t *testing.T) {
	const writes = 30
	dir := t.TempDir()
	nd, sent := writeNode(t, dir, writes)
	recorded := nd.History().Events
	nd.Close()
	values := 0
	for _, ev := range recorded {
		if ev.Kind == model.ActDo && ev.Op.Kind.IsMutator() {
			values += len(ev.Op.Arg)
		}
	}
	wal, err := os.Stat(filepath.Join(dir, "node0", walName))
	if err != nil {
		t.Fatal(err)
	}
	if saved := fullBytes(t, recorded) - int(wal.Size()); saved < values-3*writes {
		t.Fatalf("the journal holds %d B, %d B less than every send whole, which repeats %d B of values", wal.Size(), saved, values)
	}
	l, hist, err := openHistory(filepath.Join(dir, "node0"), testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eventsEqual(t, hist.Events, recorded)
	requireSent(t, hist.Events, sent)
}

// TestTornShortSendIsMintedAgain: a crash that tears a write's send record
// after its do record reached the disk whole recovers the do; the restarted
// node's store holds the write's message still pending, so the node mints the
// send again — the same event, journaled in short form again — and the
// journal reads back as it was before the tear.
func TestTornShortSendIsMintedAgain(t *testing.T) {
	dir := t.TempDir()
	nd, sent := writeNode(t, dir, 8)
	recorded := nd.History().Events
	nd.Close()
	if last := recorded[len(recorded)-1]; last.Kind != model.ActSend {
		t.Fatalf("the history ends in a %v event, want the last write's send", last.Kind)
	}
	path := filepath.Join(dir, "node0", walName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The send record is the wal's last frame: cut it one byte short.
	if err := os.WriteFile(path, whole[:len(whole)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	next, err := cluster.NewNode(meshConfigOf(t, &Storage{Dir: dir, Opts: Options{NoSync: true}}, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	restored := next.History().Events
	next.Close()
	eventsEqual(t, restored, recorded)
	requireSent(t, restored, sent)
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(whole) {
		t.Fatalf("the wal holds %d B after the send was minted again, %d B before the tear", len(again), len(whole))
	}
}

// shortPair returns the framed records of one write — its do, and its send
// in short form — at event indices first and first+1, as a node journals
// them.
func shortPair(tb testing.TB, first uint64) (do, send []byte) {
	tb.Helper()
	dir := tb.TempDir()
	nd, _ := writeNode(tb, dir, 1)
	nd.Close()
	wal, err := os.ReadFile(filepath.Join(dir, "node0", walName))
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [][]byte
	for rest := wal; len(rest) > 0; {
		size := int(rd32(rest))
		r := wire.NewReader(rest[8 : 8+size])
		r.Uvarint() // index
		bodies = append(bodies, r.Bytes()[1:])
		rest = rest[8+size:]
	}
	if len(bodies) != 2 || len(bodies[1]) >= len(bodies[0]) {
		tb.Fatalf("a write journaled %d records, want a do and a shorter send", len(bodies))
	}
	do, err = appendRecord(nil, first, bodies[0])
	if err != nil {
		tb.Fatal(err)
	}
	send, err = appendRecord(nil, first+1, bodies[1])
	if err != nil {
		tb.Fatal(err)
	}
	return do, send
}
