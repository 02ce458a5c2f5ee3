package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/internal/cluster"
)

// fuzzLog builds the fixed valid part of every fuzz input's directory: a
// six-event history, the first three sealed and the rest in wal.log — what a
// log sealing every 3 records holds just before its second seal.
// Deterministic, so corpus seeds derived from it stay meaningful across runs.
func fuzzLog(tb testing.TB) (sealed, wal []byte, events []cluster.Event) {
	events = sampleEvents(6)
	for i, ev := range events {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			tb.Fatal(err)
		}
		if i < 3 {
			sealed = append(sealed, rec...)
		} else {
			wal = append(wal, rec...)
		}
	}
	return sealed, wal, events
}

// fuzzSeeds returns the hand-picked (wal tail, sealed tail) shapes the
// fuzzer starts from. Wal tails: clean boundary, a valid seventh record,
// torn cuts through it, a bit flip, an index gap, an overlapping
// (already-seen) index, plain garbage. Sealed tails: records the wal repeats
// (one, a torn second, all three), a bit-flipped record the wal covers, an
// index out of order; and both at once. Then a segment whose next record is
// cut short just where the wal begins (covered, so repaired), both files
// torn at once, a long wal — a crash before the rename — behind an intact
// segment, and an intact record of journal format 0x01 at the wal's tail.
// Last, a write's do and its send in short form, whole, with the send torn,
// and the send alone, with no do before it to take the value from: an
// intact record this build cannot read, so a FormatError.
func fuzzSeeds(tb testing.TB) [][2][]byte {
	events := sampleEvents(8)
	rec := func(index uint64, ev cluster.Event) []byte {
		r, err := encodeTestRecord(index, ev)
		if err != nil {
			tb.Fatal(err)
		}
		return r
	}
	rec6 := rec(6, events[6])
	flipped := append([]byte(nil), rec6...)
	flipped[len(flipped)-2] ^= 0x40
	rec3, rec4, rec5 := rec(3, events[3]), rec(4, events[4]), rec(5, events[5])
	flipped3 := append([]byte(nil), rec3...)
	flipped3[len(flipped3)-2] ^= 0x40
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	do6, send7 := shortPair(tb, 6)
	_, send6 := shortPair(tb, 5)
	return [][2][]byte{
		{{}, {}},                                   // clean EOF at a record boundary
		{rec6, {}},                                 // one more intact record
		{rec6[:4], {}},                             // torn inside the header
		{rec6[:len(rec6)/2], {}},                   // torn inside the payload
		{rec6[:len(rec6)-1], {}},                   // torn one byte short
		{flipped, {}},                              // CRC mismatch
		{rec(9, events[7]), {}},                    // index gap: must surface CorruptionError
		{rec(0, events[7]), {}},                    // stale index: must be skipped, not duplicated
		{[]byte("garbage tail!"), {}},              // arbitrary junk
		{{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, {}}, // implausible length header
		{{}, rec3},                                 // seal interrupted after its first record
		{{}, join(rec3, rec4[:len(rec4)/2])},       // seal torn inside its second record
		{{}, join(rec3, rec4, rec5)},               // seal complete, wal not yet truncated
		{{}, flipped3},                             // damaged record the wal still covers
		{{}, rec(7, events[7])},                    // index out of order inside the snapshot: CorruptionError
		{rec6, []byte("garbage tail!")},            // both tails at once
		{{}, rec3[:len(rec3)-1]},                   // sealed file torn at an event the wal also holds
		{rec6[:len(rec6)/2], {0}},                  // both files torn
		{join(rec6, rec(7, events[7])), {}},        // a wal past its seal threshold
		{legacyRecord(tb, 6, events[6]), {}},       // an earlier format: must surface FormatError
		{join(do6, send7), {}},                     // a write, its send in short form
		{join(do6, send7[:len(send7)-1]), {}},      // the short send torn: the do stays
		{send6, {}},                                // a short send behind a receive: intact, unreadable: FormatError
	}
}

// FuzzRecoverTail appends arbitrary bytes after a valid wal and after a
// valid first segment, and opens the log, decoding what Open replays in
// order, as a shard does (openHistory). Recovery must never panic, never
// lose or rewrite the sealed prefix nor lose what the intact wal holds, fail
// only with CorruptionError or FormatError and then leave every file as it
// was, take every event index from exactly one file, and be idempotent: a
// second Open of the recovered (physically truncated) files sees exactly the
// same events, and the log stays appendable.
func FuzzRecoverTail(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, walTail, sealedTail []byte) {
		sealed, wal, events := fuzzLog(t)
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{
			fmt.Sprintf(segFormat, 0): append(sealed, sealedTail...),
			walName:                   append(wal, walTail...),
		})
		opts := Options{NoSync: true, sealEvery: 3}
		before := readDir(t, dir)
		l, hist, err := openHistory(dir, testMeta(), opts)
		if err != nil {
			var ce *CorruptionError
			var fe *FormatError
			if !errors.As(err, &ce) && !errors.As(err, &fe) {
				t.Fatalf("Open: %v (neither a CorruptionError nor a FormatError)", err)
			}
			if !maps.Equal(readDir(t, dir), before) {
				t.Fatalf("Open refused the directory (%v) but changed it", err)
			}
			return
		}
		if histLen(hist) < len(events) {
			t.Fatalf("valid history lost: recovered %d events, the intact files held %d", histLen(hist), len(events))
		}
		for i, want := range events[:3] {
			g, _ := json.Marshal(hist.Events[i])
			w, _ := json.Marshal(want)
			if string(g) != string(w) {
				t.Fatalf("sealed event %d rewritten:\n got %s\nwant %s", i, g, w)
			}
		}
		recovered := len(hist.Events)
		requireEachIndexOnce(t, dir, recovered)
		if err := appendEvent(l, sampleEvents(1)[0]); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, hist2, err := openHistory(dir, testMeta(), opts)
		if err != nil {
			t.Fatalf("reopen after recovery must be clean: %v", err)
		}
		defer l2.Close()
		if histLen(hist2) != recovered+1 {
			t.Fatalf("recovery not idempotent: first saw %d+1 events, reopen sees %d", recovered, histLen(hist2))
		}
	})
}

func histLen(h *cluster.History) int {
	if h == nil {
		return 0
	}
	return len(h.Events)
}
