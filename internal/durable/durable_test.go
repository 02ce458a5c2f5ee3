package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/supervisor"
	"repro/internal/wire"

	_ "repro/internal/store/causal"
)

// encodeTestRecord builds one framed record, in a slice of its own so
// tests can accumulate records freely.
func encodeTestRecord(index uint64, ev cluster.Event) ([]byte, error) {
	w := wire.NewWriter()
	if err := cluster.AppendEventBinary(w, ev); err != nil {
		return nil, err
	}
	return appendRecord(nil, index, w.Bytes())
}

// sampleEvents synthesizes a plausible mixed history: do, send, and receive
// events with the field shapes real nodes record.
func sampleEvents(n int) []cluster.Event {
	evs := make([]cluster.Event, 0, n)
	lamport := uint64(0)
	seq := uint64(0)
	for i := 0; i < n; i++ {
		lamport++
		switch i % 3 {
		case 0:
			evs = append(evs, cluster.Event{
				Kind: model.ActDo, Lamport: lamport,
				Object: "x", Op: model.Write(model.Value(fmt.Sprintf("v%d", i))),
				Rval:     model.OKResponse(),
				Dot:      model.Dot{Origin: 0, Seq: seq + 1},
				Frontier: []uint64{seq, 0, 0},
			})
		case 1:
			seq++
			evs = append(evs, cluster.Event{
				Kind: model.ActSend, Lamport: lamport,
				Origin: 0, Seq: seq, Payload: []byte(fmt.Sprintf("payload-%d", i)),
			})
		default:
			evs = append(evs, cluster.Event{
				Kind: model.ActReceive, Lamport: lamport,
				Origin: 1, Seq: uint64(i/3 + 1), Payload: []byte(fmt.Sprintf("remote-%d", i)),
			})
		}
	}
	return evs
}

// eventsEqual compares event sequences through their JSON rendering, so
// nil-vs-empty slice normalization cannot produce false mismatches.
func eventsEqual(t *testing.T, got, want []cluster.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Fatalf("event %d differs:\n got %s\nwant %s", i, g, w)
		}
	}
}

func testMeta() Meta { return Meta{Node: 0, N: 3, Store: "causal"} }

func writeLog(t *testing.T, dir string, events []cluster.Event, opts Options) {
	t.Helper()
	l, hist, err := Open(dir, testMeta(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hist != nil {
		t.Fatalf("fresh dir recovered %d events", len(hist.Events))
	}
	for _, ev := range events {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(20)
	writeLog(t, dir, events, Options{})

	l, hist, err := Open(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if hist == nil {
		t.Fatal("no history recovered")
	}
	if hist.Node != 0 || hist.N != 3 || hist.Store != "causal" {
		t.Fatalf("history meta = %+v", hist)
	}
	eventsEqual(t, hist.Events, events)

	// The log keeps appending where recovery left off.
	extra := sampleEvents(23)[20:]
	for _, ev := range extra {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, hist2, err := Open(dir, testMeta(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist2.Events, append(append([]cluster.Event(nil), events...), extra...))
}

func TestMetaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, sampleEvents(3), Options{NoSync: true})
	for _, wrong := range []Meta{
		{Node: 1, N: 3, Store: "causal"},
		{Node: 0, N: 4, Store: "causal"},
		{Node: 0, N: 3, Store: "lww"},
	} {
		if _, _, err := Open(dir, wrong, Options{}); !errors.Is(err, ErrMetaMismatch) {
			t.Fatalf("meta %+v: err = %v, want ErrMetaMismatch", wrong, err)
		}
	}
}

// TestTornTailTruncatesToPrefix is the torn-write regression sweep: cutting
// the wal at EVERY byte offset inside its last few records must recover a
// clean prefix of the original history — never a fabricated or reordered
// event — and must leave the file re-openable and appendable.
func TestTornTailTruncatesToPrefix(t *testing.T) {
	master := t.TempDir()
	events := sampleEvents(12)
	writeLog(t, master, events, Options{NoSync: true})
	walBytes, err := os.ReadFile(filepath.Join(master, walName))
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, so cut offsets can be classified.
	boundaries := []int{0}
	for off := 0; off < len(walBytes); {
		size := int(rd32(walBytes[off : off+4]))
		off += 8 + size
		boundaries = append(boundaries, off)
	}
	if boundaries[len(boundaries)-1] != len(walBytes) {
		t.Fatalf("frame walk ended at %d, file is %d", boundaries[len(boundaries)-1], len(walBytes))
	}
	prefixAt := func(cut int) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				n = i
			}
		}
		return n
	}

	start := boundaries[len(boundaries)-4] // sweep the last three records
	for cut := start; cut < len(walBytes); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, hist, err := Open(dir, testMeta(), Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := events[:prefixAt(cut)]
		var got []cluster.Event
		if hist != nil {
			got = hist.Events
		}
		eventsEqual(t, got, want)

		// Appending after recovery must continue the sequence...
		if err := l.Append(events[len(want)]); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// ...and a second recovery sees it (truncation was physical).
		l2, hist2, err := Open(dir, testMeta(), Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		eventsEqual(t, hist2.Events, events[:len(want)+1])
		l2.Close()
	}
}

// TestCorruptTailBitFlip flips single bytes in the last record (header,
// CRC, payload) and requires recovery to drop the damaged suffix, keeping
// the intact prefix.
func TestCorruptTailBitFlip(t *testing.T) {
	master := t.TempDir()
	events := sampleEvents(8)
	writeLog(t, master, events, Options{NoSync: true})
	walBytes, err := os.ReadFile(filepath.Join(master, walName))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int{0}
	for off := 0; off < len(walBytes); {
		size := int(rd32(walBytes[off : off+4]))
		off += 8 + size
		boundaries = append(boundaries, off)
	}
	lastStart := boundaries[len(boundaries)-2]
	for _, flip := range []int{lastStart, lastStart + 4, lastStart + 8, len(walBytes) - 1} {
		dir := t.TempDir()
		corrupt := append([]byte(nil), walBytes...)
		corrupt[flip] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, walName), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		_, hist, err := Open(dir, testMeta(), Options{NoSync: true})
		if err != nil {
			t.Fatalf("flip at %d: %v", flip, err)
		}
		eventsEqual(t, hist.Events, events[:len(events)-1])
	}
}

// TestIndexGapIsCorruption: a wal whose valid records skip an index cannot
// result from a torn append, so recovery must refuse instead of silently
// bridging the gap.
func TestIndexGapIsCorruption(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(3)
	var walBytes []byte
	for i, ev := range events {
		idx := uint64(i)
		if i == 2 {
			idx = 5 // gap: 0, 1, 5
		}
		rec, err := encodeTestRecord(idx, ev)
		if err != nil {
			t.Fatal(err)
		}
		walBytes = append(walBytes, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptionError
	if _, _, err := Open(dir, testMeta(), Options{}); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", err)
	}
}

// dirNames lists dir's entries in name order (os.ReadDir's).
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSealIsARename: a seal moves the wal's inode under a segment name and
// writes nothing. After k seals the directory holds meta.json, k segments
// named after their first events, and the wal; their sizes sum to the bytes
// of the records appended, which is also everything the process wrote — up
// to the slack /proc's process-wide counter needs: go test logs the files a
// test opens, a few KB at a time, so the log is made long enough for that to
// be noise.
func TestSealIsARename(t *testing.T) {
	const every, seals, rest = 128, 4, 6
	dir := t.TempDir()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, sealEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]cluster.Event, seals*every+rest)
	var recordBytes int64
	for i := range events {
		events[i] = benchEvent(i)
		rec, err := encodeTestRecord(uint64(i), events[i])
		if err != nil {
			t.Fatal(err)
		}
		recordBytes += int64(len(rec))
	}
	before, counted := bytesWritten()
	for i, ev := range events {
		sealing := (i+1)%every == 0
		var wal os.FileInfo
		if sealing {
			if wal, err = os.Stat(filepath.Join(dir, walName)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
		if !sealing {
			continue
		}
		seg, err := os.Stat(filepath.Join(dir, fmt.Sprintf(segFormat, i+1-every)))
		if err != nil {
			t.Fatalf("append %d should have sealed: %v", i, err)
		}
		if !os.SameFile(wal, seg) {
			t.Fatalf("the segment sealed at append %d is not the wal's inode: its records were copied", i)
		}
	}
	after, _ := bytesWritten()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{metaName}
	for k := 0; k < seals; k++ {
		want = append(want, fmt.Sprintf(segFormat, k*every))
	}
	want = append(want, walName)
	names := dirNames(t, dir)
	if !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	var onDisk int64
	for _, name := range names[1:] {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if onDisk != recordBytes {
		t.Fatalf("segments and wal hold %d bytes, the records appended are %d", onDisk, recordBytes)
	}
	if wrote := after - before; counted && float64(wrote) > 1.05*float64(recordBytes) {
		t.Fatalf("appending %d bytes of records wrote %d bytes: a record is written more than once", recordBytes, wrote)
	}

	l, hist, err := Open(dir, testMeta(), Options{NoSync: true, sealEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eventsEqual(t, hist.Events, events)
	if l.walCount != rest {
		t.Fatalf("reopened log counts %d wal records, want %d", l.walCount, rest)
	}
}

// TestSealRefusesExistingSegment: a file already named after the segment a
// seal is about to create is left as it is. The seal fails, the wal keeps
// every record it holds, and the planted file is not replaced. (A rename
// replaces its target silently, so unguarded, the planted file was lost and
// the append reported success.)
func TestSealRefusesExistingSegment(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, sealEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	planted := filepath.Join(dir, fmt.Sprintf(segFormat, 0))
	if err := os.WriteFile(planted, []byte("planted"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := sampleEvents(every)
	var walBytes int64
	for i, ev := range events {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += int64(len(rec))
		err = l.Append(ev)
		if i < every-1 && err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == every-1 && err == nil {
			t.Fatalf("the sealing append renamed the wal over %s", filepath.Base(planted))
		}
	}
	if got, err := os.ReadFile(planted); err != nil || string(got) != "planted" {
		t.Fatalf("the planted segment now holds %q (err %v)", got, err)
	}
	if info, err := os.Stat(filepath.Join(dir, walName)); err != nil || info.Size() != walBytes {
		t.Fatalf("after the refused seal the wal is %v (err %v), want %d bytes", info, err, walBytes)
	}
}

// TestReadOnlySealedSegmentsRecover: recovery writes to a sealed file only to
// cut back a damaged record the next file covers, so intact segments the
// process may not write (a restored backup, a read-only mount opened for
// inspection) must still open.
func TestReadOnlySealedSegmentsRecover(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(20)
	writeLog(t, dir, events, Options{sealEvery: 8, NoSync: true})
	segs, err := filepath.Glob(filepath.Join(dir, segGlob))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments = %v (%v), want two", segs, err)
	}
	for _, seg := range segs {
		if err := os.Chmod(seg, 0o444); err != nil {
			t.Fatal(err)
		}
	}
	if f, err := os.OpenFile(segs[0], os.O_RDWR, 0); err == nil {
		f.Close()
		t.Skip("file modes do not bind this user (root)")
	}
	l, hist, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("open with read-only segments: %v", err)
	}
	defer l.Close()
	eventsEqual(t, hist.Events, events)
}

// TestRecoveryCostIndependentOfSegments: recovery reads every file of a
// directory through one read buffer and one payload buffer, so opening the
// same events sealed into 64 segments allocates what opening them sealed
// into one does, give or take each file's handle and name — not a 64 KiB
// read buffer per file.
func TestRecoveryCostIndependentOfSegments(t *testing.T) {
	const segments, every = 64, 8
	events := sampleEvents(segments * every)
	open := func(sealEvery int) (allocated float64, files int) {
		dir := t.TempDir()
		opts := Options{NoSync: true, sealEvery: sealEvery}
		writeLog(t, dir, events, opts)
		files = len(logFiles(dir))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, hist, err := Open(dir, testMeta(), opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		eventsEqual(t, hist.Events, events)
		return float64(after.TotalAlloc - before.TotalAlloc), files
	}
	one, oneFiles := open(len(events))
	many, manyFiles := open(every)
	if manyFiles < segments {
		t.Fatalf("sealing every %d records left %d files, want at least %d segments", every, manyFiles, segments)
	}
	perFile := (many - one) / float64(manyFiles-oneFiles)
	t.Logf("Open over %d files allocates %.0f B, over %d files %.0f B: %.0f B per extra file", oneFiles, one, manyFiles, many, perFile)
	if perFile > 2<<10 {
		t.Errorf("each extra file costs recovery %.0f B; want at most 2 KiB (a handle and a name)", perFile)
	}
}

// recordBounds walks a file of length|crc|payload frames — journal records
// or checkpoint frames — and returns their boundaries: frame i occupies
// raw[b[i]:b[i+1]].
func recordBounds(t *testing.T, raw []byte) []int {
	t.Helper()
	bounds := []int{0}
	for off := 0; off < len(raw); {
		if len(raw)-off < 8 {
			t.Fatalf("file ends mid-header at %d of %d", off, len(raw))
		}
		off += 8 + int(rd32(raw[off:off+4]))
		bounds = append(bounds, off)
	}
	if bounds[len(bounds)-1] != len(raw) {
		t.Fatalf("frame walk ended at %d, file is %d", bounds[len(bounds)-1], len(raw))
	}
	return bounds
}

// requireEachIndexOnce fails unless dir's files, read in recovery's order,
// are intact to their last byte and supply every event index 0..n-1 exactly
// once under recovery's rule — a record below the count so far repeats a
// sealed one and is passed over, none skips ahead — which is what makes a
// second Open see what the first did.
func requireEachIndexOnce(t *testing.T, dir string, n int) {
	t.Helper()
	count := 0
	for _, name := range logFiles(dir) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		rr := newRecordReader(f, recoverBuffer)
		for {
			index, _, err := rr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s is still damaged at offset %d after recovery", name, rr.good)
			}
			if index > uint64(count) {
				t.Fatalf("%s holds event %d where %d is next", name, index, count)
			}
			if index == uint64(count) {
				count++
			}
		}
		f.Close()
	}
	if count != n {
		t.Fatalf("the files supply %d events, recovery returned %d", count, n)
	}
}

// copyDir copies the regular files of from into to.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	for _, name := range dirNames(t, from) {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The directories under testdata/parent-layout were written by the last
// build that sealed by copying (commit 69cc7ae, SnapshotEvery 8), in journal
// format 0x01: clean is sampleEvents(30) closed normally — snap.log 0..23,
// wal.log 24..29; overlap is a kill -9 between the second seal's fsync and
// its wal truncate — snap.log 0..15, wal.log 8..15; tornseal is overlap with
// snap.log cut inside record 13. Each also holds the meta.json and tree.ckpt
// of that build.
const parentLayout = "testdata/parent-layout"

// readDir returns the contents of every file in dir, by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	for _, name := range dirNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(data)
	}
	return files
}

// requireRefused opens dir and fails unless Open returns a FormatError
// naming file and leaves every file of dir as it was: nothing replayed,
// truncated, removed or created.
func requireRefused(t *testing.T, dir, file string, opts Options) {
	t.Helper()
	before := readDir(t, dir)
	l, hist, err := Open(dir, testMeta(), opts)
	var fe *FormatError
	if !errors.As(err, &fe) || fe.File != file || l != nil || hist != nil {
		t.Fatalf("Open = (%v, %v, %v), want a FormatError in %s", l, hist, err, file)
	}
	if after := readDir(t, dir); !maps.Equal(after, before) {
		t.Fatalf("a refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// TestParentLayoutOpens opens each data directory the copying build left.
// They hold update payloads in a layout no store of this build decodes, so
// Open refuses them with a FormatError — at the snap.log, and with that
// taken away at the first record of the wal — and touches nothing in them.
func TestParentLayoutOpens(t *testing.T) {
	for _, name := range []string{"clean", "overlap", "tornseal"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, filepath.Join(parentLayout, name), dir)
			opts := Options{NoSync: true, sealEvery: 8}
			requireRefused(t, dir, snapName, opts)
			if err := os.Remove(filepath.Join(dir, snapName)); err != nil {
				t.Fatal(err)
			}
			requireRefused(t, dir, walName, opts)
		})
	}
}

// legacyRecord is encodeTestRecord's record in journal format 0x01: the
// same frame with the body's tag byte, and so the CRC, rewritten.
func legacyRecord(t testing.TB, index uint64, ev cluster.Event) []byte {
	t.Helper()
	rec, err := encodeTestRecord(index, ev)
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(rec[8:])
	rd.Uvarint()                     // index
	rd.Bytes()[0] = legacyJournalTag // the body, aliasing rec
	putFrameHeader(rec)
	return rec
}

// TestEarlierFormatRecordRefused: an intact record of journal format 0x01
// is refused wherever it sits — at the head of a sealed segment, and at the
// tail of a wal behind records this build wrote, where it is not taken for a
// torn append and cut away.
func TestEarlierFormatRecordRefused(t *testing.T) {
	const every = 4
	events := sampleEvents(2*every + 3)
	opts := Options{NoSync: true, sealEvery: every}

	sealed := t.TempDir()
	writeLog(t, sealed, events, opts)
	var seg []byte
	for i, ev := range events[:every] {
		seg = append(seg, legacyRecord(t, uint64(i), ev)...)
	}
	writeFiles(t, sealed, map[string][]byte{fmt.Sprintf(segFormat, 0): seg})
	requireRefused(t, sealed, fmt.Sprintf(segFormat, 0), opts)

	tail := t.TempDir()
	writeLog(t, tail, events[:every-1], opts)
	wal, err := os.ReadFile(filepath.Join(tail, walName))
	if err != nil {
		t.Fatal(err)
	}
	writeFiles(t, tail, map[string][]byte{walName: append(wal, legacyRecord(t, every-1, events[every-1])...)})
	requireRefused(t, tail, walName, opts)
}

// writeFiles lays out a data directory from file contents; a nil content
// leaves that file out.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDamagedSealedSegmentIsCorruption flips a bit in a sealed record older
// than anything the next file holds. No torn seal explains it and nothing
// can supply the event, so recovery must refuse and leave the file alone.
func TestDamagedSealedSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	const every = 8
	writeLog(t, dir, sampleEvents(2*every+3), Options{NoSync: true, sealEvery: every})
	name := fmt.Sprintf(segFormat, 0)
	path := filepath.Join(dir, name)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := recordBounds(t, seg)
	seg[b[3]+10] ^= 0x04 // inside record 3's payload; the next segment starts at 8
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptionError
	if _, _, err := Open(dir, testMeta(), Options{NoSync: true, sealEvery: every}); !errors.As(err, &ce) || ce.File != name {
		t.Fatalf("err = %v, want a CorruptionError in %s", err, name)
	}
	if after, err := os.ReadFile(path); err != nil || len(after) != len(seg) {
		t.Fatalf("refused recovery changed %s: %d bytes, was %d (%v)", name, len(after), len(seg), err)
	}
}

// TestLeftoversRemovedOnOpen: a meta.json.tmp is a rename that never
// happened; it is not read, it is removed, and the history is what the
// record files hold.
func TestLeftoversRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(5)
	writeLog(t, dir, events, Options{NoSync: true})
	leftover := metaName + ".tmp"
	writeFiles(t, dir, map[string][]byte{leftover: []byte("half-written garbage")})
	_, hist, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
	if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
		t.Fatalf("leftover %s not removed", leftover)
	}
}

// sealCrash is the panic value the crash hook below throws.
type sealCrash struct{}

// crashDuringSeal appends events until the hook — called inside every seal,
// between the rename and the new wal, with the number of Appends started —
// panics, and returns the number of events appended, the crashing Append's
// included: its event was durable before the seal began. The log is left
// as the "kill -9" left it, never closed.
func crashDuringSeal(t *testing.T, dir string, every int, events []cluster.Event, crashAt func(appended int) bool) int {
	t.Helper()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, sealEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	appended, crashed := 0, false
	testCrashSeal = func() {
		if crashAt(appended) {
			panic(sealCrash{})
		}
	}
	defer func() { testCrashSeal = nil }()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sealCrash); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		for _, ev := range events {
			appended++
			if err := l.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}()
	if !crashed {
		t.Fatal("crash hook never fired; seal cadence changed?")
	}
	return appended
}

// TestCrashInSealWindow kills the log at the one point inside a seal where
// the directory is not in a state Append leaves: the wal has been renamed
// and no new one exists yet. Reopening must recover every event, create the
// wal, and seal and recover on.
func TestCrashInSealWindow(t *testing.T) {
	const every = 16
	dir := t.TempDir()
	events := sampleEvents(3*every + 5)
	// The first seal (event 16) completes; the hook kills the second (32).
	appended := crashDuringSeal(t, dir, every, events, func(appended int) bool { return appended > every })
	if appended != 2*every {
		t.Fatalf("crashed after %d appends, want %d", appended, 2*every)
	}
	if _, err := os.Stat(filepath.Join(dir, walName)); !os.IsNotExist(err) {
		t.Fatalf("wal.log in the crash window: %v; the hook should fire before it is recreated", err)
	}
	// No Close: the "process" died. The on-disk state is what recovery gets.

	l, hist, err := Open(dir, testMeta(), Options{NoSync: true, sealEvery: every})
	if err != nil {
		t.Fatalf("recovery from mid-seal crash: %v", err)
	}
	eventsEqual(t, hist.Events, events[:appended])
	for _, ev := range events[appended:] {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, hist, err = Open(dir, testMeta(), Options{NoSync: true, sealEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
	requireEachIndexOnce(t, dir, len(events))
}

// TestDiskBackedSupervisorAuditsClean is the tentpole's supervisor half: a
// chaos schedule with crash/restart directives runs against a cluster whose
// histories live on disk (cluster.Config.Storage), so every crash closes a
// journal and every restart recovers through durable.Open — the same code
// path a kill -9'd served process takes. The run must quiesce, converge,
// and audit clean, and the recovered incarnations' journals must hold the
// full merged history.
func TestDiskBackedSupervisorAuditsClean(t *testing.T) {
	st, err := store.Open("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	dataDir := t.TempDir()
	em := fault.NewNetem(n)
	base := cluster.Config{
		Store: st, Seed: 17,
		Storage: &Storage{Dir: dataDir, Opts: Options{sealEvery: 64}},
	}
	sup, err := supervisor.New(base, n, em, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	sched := fault.Generate(fault.Config{Seed: 17, N: n, Steps: 80, Partitions: 1, Crashes: 2, LinkFaults: 2})
	objects := []model.ObjectID{"x", "y", "z"}

	var wg sync.WaitGroup
	schedErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		schedErr <- sup.RunSchedule(sched)
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				obj := objects[rng.Intn(len(objects))]
				op := model.Read()
				if rng.Intn(2) == 0 {
					op = model.Write(model.Value(fmt.Sprintf("w%d.%d", w, i)))
				}
				_, _ = sup.Do(w%n, obj, op) // downtime errors expected
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if err := <-schedErr; err != nil {
		t.Fatalf("schedule: %v", err)
	}
	crashes, restarts := sup.Crashes()
	if crashes == 0 || crashes != restarts {
		t.Fatalf("crashes/restarts = %d/%d; schedule did not exercise disk recovery", crashes, restarts)
	}

	if err := sup.Settle(30*time.Second, objects); err != nil {
		t.Fatal(err)
	}
	audits, err := cluster.AuditShards(1, sup.Histories, spec.MVRTypes())
	if err != nil {
		t.Fatal(err)
	}
	if err := audits[0].Err(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range sup.Nodes() {
		if v := nd.Violations(); len(v) != 0 {
			t.Fatalf("r%d property violations: %v", nd.ID(), v)
		}
	}
	hists, err := sup.Histories(0)
	if err != nil {
		t.Fatal(err)
	}

	// Every node's on-disk log must hold exactly its in-memory history —
	// the journal IS the history, not a lossy shadow of it.
	sup.Close()
	for i := 0; i < n; i++ {
		_, hist, err := Open(filepath.Join(dataDir, fmt.Sprintf("node%d", i)),
			Meta{Node: model.ReplicaID(i), N: n, Store: "causal"}, Options{})
		if err != nil {
			t.Fatalf("reopen node%d: %v", i, err)
		}
		if hist == nil {
			t.Fatalf("node%d journal is empty", i)
		}
		eventsEqual(t, hist.Events, hists[i].Events)
	}
}
