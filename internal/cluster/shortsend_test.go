package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// A send that directly follows its own do record in the same block leaves out
// the do's argument (codec.go's short form). These tests hold every reader of
// a shard's records to the events the records were written from.

// capturedEvents keeps a private copy of every event a per-event journal is
// handed — the full events, payloads whole — as the reference the shard's
// records must decode back to.
type capturedEvents []Event

// teeJournal hands each event to ref and on to inner, if there is one.
type teeJournal struct {
	inner journal
	ref   *capturedEvents
}

func (j teeJournal) stage(ev Event, rec []byte) error {
	ev.Payload = slices.Clone(ev.Payload)
	ev.Frontier = slices.Clone(ev.Frontier)
	*j.ref = append(*j.ref, ev)
	if j.inner == nil {
		return nil
	}
	return j.inner.stage(ev, rec)
}

func (j teeJournal) commit() error {
	if j.inner == nil {
		return nil
	}
	return j.inner.commit()
}

// standalone is ev as AppendEventBinary and DecodeEventBinary carry it alone:
// what every in-order reader must decode a record to.
func standalone(t testing.TB, ev Event) Event {
	t.Helper()
	var w wire.Writer
	if err := AppendEventBinary(&w, ev); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEventBinary(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// writeMix drives a loose causal shard through ops steps — writes of values
// whose length cycles through lens, reads, and receives of a second
// replica's writes — and returns the full events it recorded, as its
// journal, if it has one, was handed them.
func writeMix(t testing.TB, s *shard, ops int, lens []int) []Event {
	t.Helper()
	var ref capturedEvents
	inner := s.journal
	s.journal = teeJournal{inner, &ref}
	defer func() { s.journal = inner }()
	other := s.n.cfg.Store.NewReplica(2, s.n.cfg.N)
	for i := 0; i < ops; i++ {
		key := model.ObjectID(fmt.Sprintf("k%d", i%5))
		var err error
		switch i % 4 {
		case 3:
			_, err = s.do(key, model.Read())
		case 2:
			other.Do(key, model.Write(model.Value(fmt.Sprintf("remote-%d", i))))
			u := protoUpdate{Origin: 2, Seq: uint64(s.updates[2].Len()) + 1, Lamport: uint64(i), Payload: slices.Clone(other.PendingMessage())}
			other.OnSend()
			_, err = s.applyRun([]protoUpdate{u}, true)
		default:
			value := strings.Repeat(string(rune('a'+i%26)), lens[i%len(lens)])
			_, err = s.do(key, model.Write(model.Value(value)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// record is one record of a shard's log: its kind field, its block and its
// offset there.
type record struct {
	kind       uint64
	block, off int
}

// logRecords walks a shard's log in order, decoding every record.
func logRecords(t testing.TB, l *eventLog) []record {
	t.Helper()
	blocks, n := l.recs.Snapshot()
	var recs []record
	var r wire.Reader
	var dec EventDecoder
	for bi, b := range blocks {
		for r.Reset(b); r.Remaining() > 0; {
			off := len(b) - r.Remaining()
			recs = append(recs, record{kind: wire.NewReader(b[off:]).Uvarint(), block: bi, off: off})
			if _, err := dec.Decode(&r); err != nil {
				t.Fatalf("record %d: %v", len(recs)-1, err)
			}
		}
	}
	if len(recs) != n {
		t.Fatalf("walked %d records, the log holds %d", len(recs), n)
	}
	return recs
}

// decodeRecords decodes a sequence of records, in order.
func decodeRecords(t testing.TB, recs [][]byte) []Event {
	t.Helper()
	var evs []Event
	var r wire.Reader
	var dec EventDecoder
	for _, b := range recs {
		for r.Reset(b); r.Remaining() > 0; {
			ev, err := dec.Decode(&r)
			if err != nil {
				t.Fatalf("record %d: %v", len(evs), err)
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// requireEvents fails unless got is ref, event by event, as the standalone
// codec carries each.
func requireEvents(t testing.TB, what string, got, ref []Event) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d events, recorded %d", what, len(got), len(ref))
	}
	for i := range ref {
		if want := standalone(t, ref[i]); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: event %d is\n%#v\nrecorded\n%#v", what, i, got[i], want)
		}
	}
}

// valueLens cycles writes through short and long values, past a block's
// worth in a few hundred writes.
var valueLens = []int{1, 2, 16, 100, 256, 300, 7}

// TestShortSendRoundTrips: a shard's own writes are recorded with their
// sends in short form, and every reader of the records gets back the events
// they were written from, as AppendEventBinary's standalone form carries
// them: the log's snapshot decoded, a history reply, the journal's staged
// records decoded in order (the supervisor's memStorage is the same loop),
// and the update log read at random, as links, range serving and the forest
// read it.
func TestShortSendRoundTrips(t *testing.T) {
	s := looseShard(t, "causal")
	mem := &memStorage{}
	j, _, err := mem.OpenJournal(s.n.cfg.ID, s.n.cfg.N, "causal", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.journal = staged{j}
	ref := writeMix(t, s, 800, valueLens)
	if short := countOf(logRecords(t, &s.events), shortSend); short < 300 {
		t.Fatalf("%d of 400 writes' sends are in short form", short)
	}

	h, err := s.history()
	if err != nil {
		t.Fatal(err)
	}
	requireEvents(t, "the snapshot", h.Events, ref)

	var w wire.Writer
	snap, _ := s.snapshot()
	snap.appendTo(&w)
	reply, err := decodeHistory(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireEvents(t, "a history reply", reply.Events, ref)

	requireEvents(t, "the journal", decodeRecords(t, mem.records(s.n.cfg.ID, 0)), ref)

	// Random access: each update of the shard's own and of r2's, as a link
	// reads a run and the forest a payload.
	updates := map[model.ReplicaID][]Event{}
	for _, ev := range ref {
		if ev.Kind == model.ActSend || ev.Kind == model.ActReceive {
			updates[ev.Origin] = append(updates[ev.Origin], ev)
		}
	}
	for origin, want := range updates {
		var run []protoUpdate
		var buf []byte
		for seq := 0; seq < len(want); seq += len(run) {
			run, _ = s.logRun(origin, uint64(seq), run, &buf)
			for i, u := range run {
				ev := want[seq+i]
				if u.Seq != ev.Seq || u.Lamport != ev.Lamport || !bytes.Equal(u.Payload, ev.Payload) {
					t.Fatalf("r%d's update %d reads back as %+v, recorded %+v", origin, ev.Seq, u, ev)
				}
				if p := s.updatePayload(int(origin), ev.Seq); !bytes.Equal(p, ev.Payload) {
					t.Fatalf("the forest reads r%d's update %d as %q, recorded %q", origin, ev.Seq, p, ev.Payload)
				}
			}
		}
	}
}

// TestShortSendStaysInItsBlock: a send in short form lies in its do record's
// block, back bytes behind it; and a send whose do record ends a block, with
// too little room left behind it for the short form, is written in full at
// the start of the next, so each block reads on its own.
func TestShortSendStaysInItsBlock(t *testing.T) {
	s := looseShard(t, "causal")
	writeMix(t, s, 800, valueLens)
	recs := logRecords(t, &s.events)
	blocks, _ := s.events.recs.Snapshot()
	for i := 1; i < len(recs); i++ {
		prev, rec := recs[i-1], recs[i]
		if rec.kind != shortSend {
			continue
		}
		if prev.kind != uint64(model.ActDo) || prev.block != rec.block {
			t.Fatalf("record %d, a short send in block %d, follows a record of kind %d in block %d", i, rec.block, prev.kind, prev.block)
		}
		r := wire.NewReader(blocks[rec.block][rec.off:])
		for range 4 { // kind, lamport, origin, seq
			r.Uvarint()
		}
		if back := int(r.Uvarint()); back != rec.off-prev.off {
			t.Fatalf("record %d refers %d bytes back, its do is %d bytes back", i, back, rec.off-prev.off)
		}
	}

	// A write whose do record leaves the first block each byte of room from
	// none to what its short send takes: a filler record is sized to leave
	// room bytes behind the do.
	value := model.Value(strings.Repeat("v", 200))
	do := Event{Kind: model.ActDo, Lamport: 2, Object: "k", Op: model.Write(value), Rval: model.OKResponse(), Dot: model.Dot{Origin: 1, Seq: 1}}
	send := Event{Kind: model.ActSend, Lamport: 3, Origin: 1, Seq: 1, Payload: []byte("head|" + string(value) + "|tail")}
	var one wire.Writer
	AppendEventBinary(&one, do)
	doBytes := one.Len()
	var probe eventLog
	probe.append(do)
	probe.append(send)
	blocks, _ = probe.recs.Snapshot()
	shortBytes := len(blocks[0]) - doBytes
	tried := [2]int{} // rooms too small for the short send, and large enough
	for room := 0; room <= shortBytes; room++ {
		var l eventLog
		filler := Event{Kind: model.ActReceive, Lamport: 1, Origin: 2, Seq: 1}
		for pad := 0; ; pad++ {
			filler.Payload = make([]byte, pad)
			one.Reset()
			AppendEventBinary(&one, filler)
			if one.Len() >= 512-doBytes-room {
				break
			}
		}
		l.append(filler)
		if _, spare := l.recs.End(); spare != doBytes+room {
			continue // the filler's length prefix grew a byte past this room
		}
		l.append(do)
		l.append(send)
		recs := logRecords(t, &l)
		fits := room >= shortBytes
		if fits != (recs[2].kind == shortSend) || fits != (recs[2].block == 0) {
			t.Fatalf("with %d B left behind the do for a %d-byte short send, the send is %+v", room, shortBytes, recs[2])
		}
		if fits {
			tried[1]++
		} else {
			tried[0]++
		}
		h, err := l.snapshot(History{}).decode()
		if err != nil {
			t.Fatal(err)
		}
		requireEvents(t, fmt.Sprintf("room %d", room), h.Events, []Event{filler, do, send})
	}
	if tried[0] < shortBytes/2 || tried[1] == 0 {
		t.Fatalf("tried %d rooms too small for the short send and %d large enough", tried[0], tried[1])
	}
}

// TestRestoreRecompacts: a history restored from full events — a journal
// of a build that wrote every send whole — is written with its sends in
// short form again, and reads back the same.
func TestRestoreRecompacts(t *testing.T) {
	src := looseShard(t, "causal")
	ref := writeMix(t, src, 400, valueLens)
	var events []Event
	for _, ev := range ref {
		events = append(events, standalone(t, ev))
	}
	s := looseShard(t, "causal")
	if err := s.restore(&History{Node: s.n.cfg.ID, N: s.n.cfg.N, Events: events}); err != nil {
		t.Fatal(err)
	}
	if got, want := countOf(logRecords(t, &s.events), shortSend), countOf(logRecords(t, &src.events), shortSend); got < want-2 {
		t.Fatalf("the restored log holds %d sends in short form, the recorded one %d", got, want)
	}
	if got, want := encodedBytes(s), encodedBytes(src); got > want+want/50 {
		t.Fatalf("the restored log holds %d B of records, the recorded one %d", got, want)
	}
	h, err := s.history()
	if err != nil {
		t.Fatal(err)
	}
	requireEvents(t, "the restored history", h.Events, ref)
}

// TestShortSendAloneIsRefused: the standalone decoder refuses a send in
// short form, and so does the in-order one when no do record precedes it.
func TestShortSendAloneIsRefused(t *testing.T) {
	s := looseShard(t, "causal")
	writeMix(t, s, 1, []int{64})
	recs := logRecords(t, &s.events)
	if len(recs) != 2 || recs[1].kind != shortSend {
		t.Fatalf("a write recorded %+v, want a do and a short send", recs)
	}
	blocks, _ := s.events.recs.Snapshot()
	send := blocks[0][recs[1].off:]
	if _, err := DecodeEventBinary(wire.NewReader(send)); err == nil {
		t.Fatal("DecodeEventBinary decoded a send in short form")
	}
	var dec EventDecoder
	if _, err := dec.Decode(wire.NewReader(send)); err == nil {
		t.Fatal("a short send decoded with no do record before it")
	}
}

func countOf(recs []record, kind uint64) (n int) {
	for _, r := range recs {
		if r.kind == kind {
			n++
		}
	}
	return n
}

// FuzzEventDecoder feeds arbitrary bytes to the in-order decoder as one
// sequence of records, as a journal or a history reply feeds it. It must
// never panic; each event it decodes must be one the standalone codec
// carries unchanged; and the decoded events, recorded again by a log, which
// writes a send in short form wherever it can, must decode in order to the
// same events.
func FuzzEventDecoder(f *testing.F) {
	// Small seeds, so that minimizing what the fuzzer finds stays quick: two
	// writes with their sends in short form, a receive and a read.
	s := looseShard(f, "causal")
	writeMix(f, s, 4, []int{12, 20})
	blocks, _ := s.events.recs.Snapshot()
	seq := bytes.Join(blocks, nil)
	f.Add(seq)
	recs := logRecords(f, &s.events)
	f.Add(seq[recs[1].off:]) // a short send first, with no do before it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var dec EventDecoder
		r := wire.NewReader(b)
		var evs []Event
		for r.Remaining() > 0 {
			ev, err := dec.Decode(r)
			if err != nil {
				break
			}
			if alone := standalone(t, ev); !reflect.DeepEqual(alone, ev) {
				t.Fatalf("record %d decodes to\n%#v\nwhich the standalone codec carries as\n%#v", len(evs), ev, alone)
			}
			evs = append(evs, ev)
		}
		var l eventLog
		for _, ev := range evs {
			if _, _, _, err := l.append(ev); err != nil {
				t.Fatal(err)
			}
		}
		h, err := l.snapshot(History{}).decode()
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Events) != len(evs) || (len(evs) > 0 && !reflect.DeepEqual(h.Events, evs)) {
			t.Fatalf("%d events, recorded again, decode to %d others", len(evs), len(h.Events))
		}
	})
}
