package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/wire"

	_ "repro/internal/store/causal"
)

// encodeTestRecord builds one framed record, copied out of the pooled writer
// so tests can accumulate records freely.
func encodeTestRecord(index uint64, ev cluster.Event) ([]byte, error) {
	rec, err := encodeRecord(wire.NewWriter(), index, ev)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), rec...), nil
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

// TestSnapshotCompaction drives the log past SnapshotEvery several times
// and checks that the wal shrank, the snapshot took over, and recovery still
// returns the complete history.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(30)
	writeLog(t, dir, events, Options{SnapshotEvery: 8, NoSync: true})

	snapInfo, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatalf("no snapshot after 30 appends at SnapshotEvery=8: %v", err)
	}
	if snapInfo.Size() == 0 {
		t.Fatal("empty snapshot")
	}
	walInfo, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if walInfo.Size() >= snapInfo.Size() {
		t.Fatalf("wal (%d bytes) not compacted below snapshot (%d bytes)", walInfo.Size(), snapInfo.Size())
	}
	_, hist, err := Open(dir, testMeta(), Options{SnapshotEvery: 8, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
}

// TestSnapshotWalOverlapRecovers simulates a crash between a seal's fsync
// and its wal truncation: the wal still holds records the snapshot already
// covers. Recovery must skip the overlap by index, not duplicate.
func TestSnapshotWalOverlapRecovers(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(10)
	writeLog(t, dir, events, Options{SnapshotEvery: -1, NoSync: true}) // wal holds 0..9, no snapshot

	// Hand-write a snapshot covering the prefix 0..5, leaving the wal
	// overlapping it — byte-for-byte the post-crash state.
	var snap []byte
	for i, ev := range events[:6] {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		snap = append(snap, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	_, hist, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
}

// TestOverlapFinishedWithSealingOff: a directory left mid-seal can be opened
// by a node that runs with sealing off. Open must still finish the
// interrupted seal from the wal's unsealed records — truncating the wal
// without them would drop acknowledged events — and the log must carry on.
func TestOverlapFinishedWithSealingOff(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(12)
	off := Options{SnapshotEvery: -1, NoSync: true}
	writeLog(t, dir, events[:10], off) // wal holds 0..9, no snapshot
	var snap []byte
	for i, ev := range events[:6] {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		snap = append(snap, rec...)
	}
	writeFiles(t, dir, map[string][]byte{snapName: snap})

	l, hist, err := Open(dir, testMeta(), off)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events[:10])
	requireDisjoint(t, dir)
	for _, ev := range events[10:] {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, hist, err = Open(dir, testMeta(), off)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
}

// TestReadOnlySnapshotRecovers: recovery writes to snap.log only to repair a
// torn seal, so an intact snapshot the process may not write (a restored
// backup, a read-only mount opened for inspection) must still open.
func TestReadOnlySnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(20)
	writeLog(t, dir, events, Options{SnapshotEvery: 8, NoSync: true})
	path := filepath.Join(dir, snapName)
	if err := os.Chmod(path, 0o444); err != nil {
		t.Fatal(err)
	}
	if f, err := os.OpenFile(path, os.O_RDWR, 0); err == nil {
		f.Close()
		t.Skip("file modes do not bind this user (root)")
	}
	l, hist, err := Open(dir, testMeta(), Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatalf("open with a read-only snapshot: %v", err)
	}
	defer l.Close()
	eventsEqual(t, hist.Events, events)
}

// TestTornSnapshotIsCorruption: snapshots are written atomically, so a torn
// snapshot means real corruption — recovery must fail loudly rather than
// truncate away events the wal can no longer supply.
func TestTornSnapshotIsCorruption(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(6)
	var snap []byte
	for i, ev := range events {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		snap = append(snap, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), snap[:len(snap)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptionError
	if _, _, err := Open(dir, testMeta(), Options{}); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", err)
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

// requireDisjoint fails unless dir's wal is empty or starts exactly where its
// snapshot ends.
func requireDisjoint(t *testing.T, dir string) {
	t.Helper()
	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	sealed := len(recordBounds(t, snap)) - 1
	if first, ok := firstIndex(filepath.Join(dir, walName)); ok && first != uint64(sealed) {
		t.Fatalf("the snapshot holds %d records and the wal starts at %d", sealed, first)
	}
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

// TestTornSealRepairedOnlyFromWal is the torn-seal sweep. A seal appends to
// snap.log in place, so a crash can leave its last records half-written; the
// wal is truncated only after the seal's fsync, so it still holds them. With
// the wal intact, cutting snap.log at EVERY byte offset inside the last seal
// must recover the full history, finish the seal (wal and snapshot disjoint
// again), and leave a log that seals and recovers on. With the wal gone, or
// starting past the damage, the same cut is damage nothing covers: recovery
// must refuse, not truncate acknowledged events away.
func TestTornSealRepairedOnlyFromWal(t *testing.T) {
	const every = 8
	events := sampleEvents(3 * every)
	// The state a kill -9 leaves between the second seal's fsync and its wal
	// truncate: snap.log holds 0..15, wal.log still holds 8..15.
	master := t.TempDir()
	crashDuringSeal(t, master, every, events, func(point string, appended int) bool {
		return point == crashSealed && appended > every
	})
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(master, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	snap, wal, meta := read(snapName), read(walName), read(metaName)
	sb, wb := recordBounds(t, snap), recordBounds(t, wal)
	if len(sb)-1 != 2*every || len(wb)-1 != every {
		t.Fatalf("crash state holds %d sealed and %d wal records, want %d and %d", len(sb)-1, len(wb)-1, 2*every, every)
	}
	sealStart := sb[every]
	intactBefore := func(cut int) int { // snapshot records wholly before cut
		n := 0
		for n+1 < len(sb) && sb[n+1] <= cut {
			n++
		}
		return n
	}

	for cut := sealStart; cut < len(snap); cut++ {
		// Wal intact: repaired.
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{metaName: meta, snapName: snap[:cut], walName: wal})
		l, hist, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
		if err != nil {
			t.Fatalf("cut at %d, wal intact: %v", cut, err)
		}
		eventsEqual(t, hist.Events, events[:2*every])
		// Disjoint again: the interrupted seal is finished and the wal empty,
		// or — the cut fell inside the seal's first record, so no sealed
		// record repeats in the wal — the wal starts where the snapshot ends.
		requireDisjoint(t, dir)
		for _, ev := range events[2*every:] {
			if err := l.Append(ev); err != nil {
				t.Fatalf("cut at %d: append after repair: %v", cut, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, hist2, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
		if err != nil {
			t.Fatalf("cut at %d: reopen after a further seal: %v", cut, err)
		}
		eventsEqual(t, hist2.Events, events)
		l2.Close()

		// Wal gone, empty, or starting past the damage: corruption — unless
		// the cut fell on a record boundary and the wal holds nothing, which
		// is simply a shorter intact log.
		pastDamage := wal[wb[intactBefore(cut)-every+1]:] // first index one past the torn record
		for name, w := range map[string][]byte{"missing": nil, "empty": {}, "past the damage": pastDamage} {
			dir := t.TempDir()
			writeFiles(t, dir, map[string][]byte{metaName: meta, snapName: snap[:cut], walName: w})
			_, hist, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
			var ce *CorruptionError
			switch {
			case sb[intactBefore(cut)] == cut && len(w) == 0:
				if err != nil {
					t.Fatalf("cut at boundary %d, wal %s: %v", cut, name, err)
				}
				eventsEqual(t, hist.Events, events[:intactBefore(cut)])
			case !errors.As(err, &ce):
				t.Fatalf("cut at %d, wal %s: err = %v, want *CorruptionError", cut, name, err)
			}
		}
	}
}

// TestDamagedSealedRecordIsCorruption flips a bit in a sealed record older
// than anything the wal holds. No torn seal explains it and nothing can
// supply the event, so recovery must refuse.
func TestDamagedSealedRecordIsCorruption(t *testing.T) {
	dir := t.TempDir()
	const every = 8
	writeLog(t, dir, sampleEvents(2*every+3), Options{NoSync: true, SnapshotEvery: every})
	path := filepath.Join(dir, snapName)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := recordBounds(t, snap)
	snap[b[3]+10] ^= 0x04 // inside record 3's payload; the wal starts at 16
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptionError
	if _, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every}); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", err)
	}
	if after, err := os.ReadFile(path); err != nil || len(after) != len(snap) {
		t.Fatalf("refused recovery changed snap.log: %d bytes, was %d (%v)", len(after), len(snap), err)
	}
}

// TestLeftoverTmpSnapshotIgnored: a build that still rewrote its snapshot
// through snap.log.tmp can have crashed mid-rewrite; recovery must ignore and
// remove the leftover, trusting wal + previous snapshot.
func TestLeftoverTmpSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(5)
	writeLog(t, dir, events, Options{NoSync: true})
	tmp := filepath.Join(dir, snapName+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hist, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover tmp snapshot not removed")
	}
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
		Storage:        &Storage{Dir: dataDir, Opts: Options{SnapshotEvery: 64}},
		DialTimeout:    time.Second,
		DialBackoffMin: 5 * time.Millisecond,
		DialBackoffMax: 100 * time.Millisecond,
		RetransmitMin:  25 * time.Millisecond,
		RetransmitMax:  250 * time.Millisecond,
	}
	sup, err := cluster.NewSupervisor(base, n, em, 5*time.Millisecond)
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

	live := sup.Nodes()
	if len(live) != n {
		t.Fatalf("%d nodes live, want %d", len(live), n)
	}
	if !cluster.WaitQuiesced(live, 30*time.Second) {
		t.Fatal("disk-backed cluster did not quiesce after the schedule")
	}
	doers := make([]cluster.Doer, n)
	for i := 0; i < n; i++ {
		doers[i] = sup.Doer(i)
	}
	if err := cluster.CheckConverged(doers, objects); err != nil {
		t.Fatal(err)
	}
	hists, err := sup.Histories()
	if err != nil {
		t.Fatal(err)
	}
	audit, err := cluster.BuildAudit(hists)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.Exec.CheckWellFormed(); err != nil {
		t.Fatalf("merged execution not well-formed: %v", err)
	}
	if err := consistency.CheckCausal(audit.Abstract, spec.MVRTypes()); err != nil {
		t.Fatalf("derived abstract execution not causal: %v", err)
	}
	for _, nd := range live {
		if v := nd.Violations(); len(v) != 0 {
			t.Fatalf("r%d property violations: %v", nd.ID(), v)
		}
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
