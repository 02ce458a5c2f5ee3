package durable

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/membership"
)

// treeRoots snapshots every origin's root and count for comparison.
func treeRoots(f *membership.Forest) map[int][2]interface{} {
	out := map[int][2]interface{}{}
	for o := 0; o < f.Origins(); o++ {
		if f.Count(o) > 0 {
			out[o] = [2]interface{}{f.Count(o), f.Root(o)}
		}
	}
	return out
}

// TestTreeRecoveredMatchesLive: the Merkle forest rebuilt at Open from the
// journal must be hash-identical to the one the previous incarnation
// maintained incrementally — otherwise a restarted node would refuse (or
// wrongly admit) joiners its predecessor served correctly.
func TestTreeRecoveredMatchesLive(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(60)
	l, hist, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if hist != nil {
		t.Fatal("fresh dir recovered history")
	}
	for _, ev := range events {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	live := treeRoots(l.Tree())
	if len(live) == 0 {
		t.Fatal("no origins hashed; sampleEvents should produce sends and receives")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, _, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recovered := treeRoots(l2.Tree())
	if len(recovered) != len(live) {
		t.Fatalf("recovered %d origins, want %d", len(recovered), len(live))
	}
	for o, want := range live {
		if recovered[o] != want {
			t.Fatalf("origin %d tree diverged across recovery: got %v want %v", o, recovered[o], want)
		}
	}
}

// TestTreeCheckpointRoundTrip: every seal extends tree.ckpt next to the
// snapshot, Open seeds the forest from it, and a damaged checkpoint
// degrades to a rebuild — never to a wrong tree.
func TestTreeCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(60)
	// SnapshotEvery 16 forces several seals over 60 appends.
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	want := treeRoots(l.Tree())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "tree.ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("sealing left no tree checkpoint: %v", err)
	}

	l2, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := treeRoots(l2.Tree())
	l2.Close()
	for o, w := range want {
		if got[o] != w {
			t.Fatalf("origin %d tree diverged after checkpointed recovery: got %v want %v", o, got[o], w)
		}
	}

	// Flip a byte in the last frame: its CRC rejects it and Open rebuilds
	// what it covered from the replayed events instead.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l3, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: 16})
	if err != nil {
		t.Fatalf("corrupt tree checkpoint must not fail recovery: %v", err)
	}
	got = treeRoots(l3.Tree())
	l3.Close()
	for o, w := range want {
		if got[o] != w {
			t.Fatalf("origin %d tree wrong after corrupt-checkpoint rebuild: got %v want %v", o, got[o], w)
		}
	}
}

// editCkptFrame applies edit to the payload of one frame (negative indices
// count from the end) and recomputes that frame's CRC, so a deliberate edit
// survives the integrity check — the point of the tests below is what
// verification catches AFTER the CRC passes.
func editCkptFrame(t *testing.T, path string, frame int, edit func(payload []byte)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := recordBounds(t, raw)
	if frame < 0 {
		frame += len(b) - 1
	}
	payload := raw[b[frame]+8 : b[frame+1]]
	edit(payload)
	be32(raw[b[frame]+4:b[frame]+8], crc32.Checksum(payload, castagnoli))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ckptOriginZero locates origin 0's region in a frame payload: how many
// hashes the frame adds, the offset of its stored root, and the offset of
// its hash array. Counts in these tests stay below 128, so every uvarint is
// one byte: version, origins, start, added.
func ckptOriginZero(t *testing.T, payload []byte) (added, rootOff, hashOff int) {
	t.Helper()
	if payload[0] != treeCkptV3 {
		t.Fatalf("not a v3 checkpoint frame: % x", payload[:4])
	}
	for _, b := range payload[1:4] {
		if b >= 128 {
			t.Fatalf("test assumes single-byte varints, got % x", payload[1:4])
		}
	}
	return int(payload[3]), 4, 4 + 32
}

// writeCkptLog appends events at the given seal cadence and returns the
// live forest's roots and the checkpoint's path.
func writeCkptLog(t *testing.T, dir string, events int, every int) (map[int][2]interface{}, string) {
	t.Helper()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sampleEvents(events) {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	want := treeRoots(l.Tree())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want, filepath.Join(dir, treeName)
}

// reopenWantRoots reopens dir, requires the recovered forest to match want,
// and returns the checkpoint's size once Open is done with it — 0 after a
// discard, the last intact frame boundary after a torn append.
func reopenWantRoots(t *testing.T, dir string, every int, want map[int][2]interface{}) int64 {
	t.Helper()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
	if err != nil {
		t.Fatalf("a bad tree checkpoint must not fail recovery: %v", err)
	}
	defer l.Close()
	got := treeRoots(l.Tree())
	if len(got) != len(want) {
		t.Fatalf("recovered forest covers %d origins, want %d", len(got), len(want))
	}
	for o, w := range want {
		if got[o] != w {
			t.Fatalf("origin %d tree wrong after recovery: got %v want %v", o, got[o], w)
		}
	}
	info, err := os.Stat(filepath.Join(dir, treeName))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestTreeCkptInconsistentHashArrayRebuilds: a CRC-valid file whose hashes
// disagree with its own summary could seed the forest with wrong interior
// hashes as long as the recent events' hashes happened to match. Every
// frame stores the writer's root, and recovery must reproduce that root from
// the hashes up to it before trusting any of them — so an edited deep hash
// (in the first frame, older than the last leaf, where no payload check
// looks) discards the file and forces a full rebuild instead of a poisoned
// forest.
func TestTreeCkptInconsistentHashArrayRebuilds(t *testing.T) {
	dir := t.TempDir()
	want, ckpt := writeCkptLog(t, dir, 300, 64) // several frames, >LeafSpan broadcasts per origin
	editCkptFrame(t, ckpt, 0, func(payload []byte) {
		_, _, hashOff := ckptOriginZero(t, payload)
		payload[hashOff] ^= 0x01 // hash[0]: deeper than any payload re-check
	})
	if size := reopenWantRoots(t, dir, 64, want); size != 0 {
		t.Fatalf("inconsistent checkpoint kept %d bytes, want it discarded", size)
	}
}

// TestTreeCkptDivergentLastLeafRebuilds crafts the harder forgery: the
// hashes and the stored root agree with EACH OTHER (the attacker recomputed
// the root) but describe a recent history that diverges from the recovered
// payloads. A single-trailing-hash spot check misses any divergence older
// than the final event; recovery verifies the entire last leaf against the
// recovered payloads, so an edit LeafSpan-1 events back is caught too.
func TestTreeCkptDivergentLastLeafRebuilds(t *testing.T) {
	dir := t.TempDir()
	want, ckpt := writeCkptLog(t, dir, 300, 256) // one seal, one frame
	editCkptFrame(t, ckpt, 0, func(payload []byte) {
		added, rootOff, hashOff := ckptOriginZero(t, payload)
		if added <= int(membership.LeafSpan) {
			t.Fatalf("origin 0 checkpointed %d hashes, need > %d", added, membership.LeafSpan)
		}
		// Divergence at the START of the last leaf: the final event's hash
		// stays honest, which is exactly what fools a spot check.
		victim := added - int(membership.LeafSpan)
		payload[hashOff+victim*32] ^= 0x01
		// Recompute the root over the edited array so the self-consistency
		// check passes and only the payload comparison can object.
		scratch := membership.NewForest(1)
		for i := 0; i < added; i++ {
			if err := scratch.AppendHash(0, membership.Hash(payload[hashOff+i*32:hashOff+(i+1)*32])); err != nil {
				t.Fatal(err)
			}
		}
		root := scratch.Root(0)
		copy(payload[rootOff:rootOff+32], root[:])
	})
	if size := reopenWantRoots(t, dir, 256, want); size != 0 {
		t.Fatalf("divergent checkpoint kept %d bytes, want it discarded", size)
	}
}

// TestTreeCkptFrameOutOfChainDiscards: a frame must start where its
// predecessors ended. One that does not — intact, CRC and all — means the
// file was spliced, and nothing in it is trusted.
func TestTreeCkptFrameOutOfChainDiscards(t *testing.T) {
	dir := t.TempDir()
	want, ckpt := writeCkptLog(t, dir, 300, 64)
	editCkptFrame(t, ckpt, 1, func(payload []byte) {
		payload[2]++ // origin 0's start
	})
	if size := reopenWantRoots(t, dir, 64, want); size != 0 {
		t.Fatalf("out-of-chain checkpoint kept %d bytes, want it discarded", size)
	}
}

// TestTreeCkptTornLastFrame cuts the checkpoint at every offset inside its
// last frame — the crash hit mid-append. The earlier frames still seed, the
// file is cut back to their end so the next frame chains, and the log goes
// on sealing and recovering.
func TestTreeCkptTornLastFrame(t *testing.T) {
	master := t.TempDir()
	const every = 64
	want, ckpt := writeCkptLog(t, master, 300, every)
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b := recordBounds(t, raw)
	lastStart := b[len(b)-2]
	for cut := lastStart; cut < len(raw); cut += 7 {
		dir := t.TempDir()
		copyDir(t, master, dir)
		if err := os.WriteFile(filepath.Join(dir, treeName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if size := reopenWantRoots(t, dir, every, want); size != int64(lastStart) {
			t.Fatalf("cut at %d: checkpoint is %d bytes after recovery, want the last intact boundary %d", cut, size, lastStart)
		}
		// One more seal's worth of appends extends the repaired file, and the
		// result still seeds: the checkpoint ends on a frame boundary and
		// covers everything sealed.
		l, hist, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range sampleEvents(len(hist.Events) + every)[len(hist.Events):] {
			if err := l.Append(ev); err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
		}
		live := treeRoots(l.Tree())
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if size := reopenWantRoots(t, dir, every, live); size <= int64(lastStart) {
			t.Fatalf("cut at %d: checkpoint did not grow past %d after a further seal (%d)", cut, lastStart, size)
		}
	}
}

// copyDir copies the regular files of one data directory into another.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTreeCkptOldLayoutDiscarded: a checkpoint in the whole-file layout an
// earlier build wrote (CRC, then a zero marker and version 2) is not a
// frame; it is discarded and the forest rebuilt.
func TestTreeCkptOldLayoutDiscarded(t *testing.T) {
	dir := t.TempDir()
	want, ckpt := writeCkptLog(t, dir, 60, 16)
	body := []byte{0, 2, 3} // marker, version, origins
	for o := 0; o < 3; o++ {
		body = append(body, make([]byte, 1+32)...) // count 0, zero root
	}
	old := make([]byte, 4, 4+len(body))
	be32(old, crc32.Checksum(body, castagnoli))
	if err := os.WriteFile(ckpt, append(old, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	if size := reopenWantRoots(t, dir, 16, want); size != 0 {
		t.Fatalf("old-layout checkpoint kept %d bytes, want it discarded", size)
	}
}

// sealCrash is the panic value the crash hooks below throw.
type sealCrash struct{}

// crashDuringSeal appends events until the hook — called at every crash
// point of every seal with the number of Appends started — panics, and
// returns the log as the "kill -9" left it (never closed) with the number
// of events appended, the crashing Append's included: its event was durable
// before the seal began.
func crashDuringSeal(t *testing.T, dir string, every int, events []cluster.Event, crashAt func(point string, appended int) bool) (*Log, int) {
	t.Helper()
	l, _, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	appended, crashed := 0, false
	testCrashSeal = func(point string) {
		if crashAt(point, appended) {
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
	return l, appended
}

// TestCompactCrashLeavesStaleCkptRecoverable kills the log inside a seal,
// at each point where the files disagree: after the snapshot's fsync with
// the wal not yet truncated (wal and snapshot overlap, the checkpoint is a
// frame short), after the truncate (the checkpoint is a frame short), and
// midway through the checkpoint's append (its last frame is torn).
// Reopening must recover every event, leave wal and snapshot disjoint, and
// build the same forest a checkpoint-less rebuild would: a stale-but-honest
// checkpoint seeds, it must never poison.
func TestCompactCrashLeavesStaleCkptRecoverable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		point    string
		tornCkpt bool
	}{
		{"AfterSnapshotSync", crashSealed, false},
		{"AfterWalTruncate", crashTruncated, false},
		{"MidCheckpointAppend", crashTruncated, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const every = 16
			// The first seal (event 16) completes and writes a real frame; the
			// hook kills the second (event 32).
			l, appended := crashDuringSeal(t, dir, every, sampleEvents(40), func(point string, appended int) bool {
				return point == tc.point && appended > 20
			})
			if tc.tornCkpt {
				// What a crash midway through the frame's write leaves: run
				// the append the crash preempted, then cut the frame in half.
				ckpt := filepath.Join(dir, treeName)
				before, err := os.Stat(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.appendTreeCkpt(); err != nil {
					t.Fatal(err)
				}
				after, err := os.Stat(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				if after.Size() <= before.Size() {
					t.Fatal("the preempted checkpoint append wrote nothing")
				}
				if err := os.Truncate(ckpt, (before.Size()+after.Size())/2); err != nil {
					t.Fatal(err)
				}
			}
			// No Close: the "process" died. The on-disk state is what recovery gets.

			l2, hist, err := Open(dir, testMeta(), Options{NoSync: true, SnapshotEvery: every})
			if err != nil {
				t.Fatalf("recovery from mid-seal crash: %v", err)
			}
			defer l2.Close()
			if histLen(hist) != appended {
				t.Fatalf("recovered %d events, want every appended one (%d)", histLen(hist), appended)
			}
			if info, err := os.Stat(filepath.Join(dir, walName)); err != nil || info.Size() != 0 {
				t.Fatalf("wal after recovery: %v, %v; want it empty — the interrupted seal finished", info, err)
			}
			// Reference forest straight from the recovered events — what a rebuild
			// with no checkpoint at all would produce.
			ref := membership.NewForest(testMeta().N)
			for _, ev := range hist.Events {
				if err := hashEvent(ref, ev); err != nil {
					t.Fatal(err)
				}
			}
			want := treeRoots(ref)
			got := treeRoots(l2.Tree())
			if len(got) != len(want) {
				t.Fatalf("recovered forest covers %d origins, want %d", len(got), len(want))
			}
			for o, w := range want {
				if got[o] != w {
					t.Fatalf("origin %d forest diverged after mid-seal crash: got %v want %v", o, got[o], w)
				}
			}
		})
	}
}
