package durable

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// A refused Open writes nothing: no meta.json, no cut of a torn tail or of a
// sealed file, whatever recovery met before the record it refused. These
// tests hold recovery to deferring every write until the whole directory,
// replay included, has been accepted.

// unknownRecord is an intact record of the binary format whose event is of
// a kind this build does not know (0x21), at index.
func unknownRecord(t *testing.T, index uint64) []byte {
	t.Helper()
	rec, err := appendRecord(nil, index, []byte{0x21, 1})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRefusedOpenWritesNoMeta: a wal with no meta.json beside it (a crash
// of the first open between the wal's creation and the meta rename leaves
// one, and so does an operator's copy) behind a record this build cannot
// read is refused without the meta.json a first open writes.
func TestRefusedOpenWritesNoMeta(t *testing.T) {
	events := sampleEvents(6)
	dir := t.TempDir()
	withTail(t, dir, walName, events, unknownRecord(t, uint64(len(events))))
	if err := os.Remove(filepath.Join(dir, metaName)); err != nil {
		t.Fatal(err)
	}
	requireRefused(t, dir, walName, Options{NoSync: true})
}

// TestRefusedOpenKeepsTornSeal: a sealed file torn at an event the next file
// covers is repaired by a cut, but only once the directory is accepted: a
// record refused later, in the wal, leaves the sealed file as it was.
func TestRefusedOpenKeepsTornSeal(t *testing.T) {
	const every = 8
	events := sampleEvents(2*every + 3) // seg 0…7, seg 8…15, wal 16…18
	opts := Options{NoSync: true, sealEvery: every}
	dir := t.TempDir()
	writeLog(t, dir, events, opts)
	seg := filepath.Join(dir, fmt.Sprintf(segFormat, 0))
	sealed, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Event 8, torn, at the end of the first segment: the second one starts
	// with it, so a cut repairs the first.
	torn, err := encodeTestRecord(every, events[every])
	if err != nil {
		t.Fatal(err)
	}
	writeFiles(t, dir, map[string][]byte{filepath.Base(seg): append(sealed, torn[:len(torn)/2]...)})
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	writeFiles(t, dir, map[string][]byte{walName: append(wal, unknownRecord(t, uint64(len(events)))...)})
	requireRefused(t, dir, walName, opts)

	// Without the refused record, the same directory opens and the cut is
	// made.
	writeFiles(t, dir, map[string][]byte{walName: wal})
	l, hist, err := openHistory(dir, testMeta(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eventsEqual(t, hist.Events, events)
	if got, err := os.ReadFile(seg); err != nil || len(got) != len(sealed) {
		t.Fatalf("the torn segment holds %d B after an accepted Open, want its %d B of intact records (%v)", len(got), len(sealed), err)
	}
}

// TestRestoreRefusals: a CRC-valid record whose event the node cannot
// replay — a send claiming another node's origin, a receive from an origin
// outside the cluster — refuses NewNode over Storage with the shard's reason
// in the error chain, inside a FormatError naming the file and the offset of
// the record. The torn tail behind it is not cut: the data directory is left
// byte for byte as it was.
func TestRestoreRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ev     cluster.Event
		reason string
	}{
		{"send of another origin", cluster.Event{Kind: model.ActSend, Lamport: 100, Origin: 1, Seq: 1, Payload: []byte("m")}, "claims origin r1"},
		{"receive from outside the cluster", cluster.Event{Kind: model.ActReceive, Lamport: 100, Origin: 7, Seq: 1, Payload: []byte("m")}, "origin r7 outside cluster"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			nd, _ := writeNode(t, dir, 3)
			count := len(nd.History().Events)
			nd.Close()
			node0 := filepath.Join(dir, "node0")
			wal, err := os.ReadFile(filepath.Join(node0, walName))
			if err != nil {
				t.Fatal(err)
			}
			bad, err := encodeTestRecord(uint64(count), tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			next, err := encodeTestRecord(uint64(count+1), sampleEvents(1)[0])
			if err != nil {
				t.Fatal(err)
			}
			writeFiles(t, node0, map[string][]byte{walName: append(append(wal, bad...), next[:len(next)/2]...)})
			before := readDir(t, node0)

			nd, err = cluster.NewNode(meshConfigOf(t, &Storage{Dir: dir, Opts: Options{NoSync: true}}, 0, 3))
			if err == nil {
				nd.Close()
				t.Fatal("NewNode replayed a record it should refuse")
			}
			if after := readDir(t, node0); !maps.Equal(after, before) {
				t.Fatalf("NewNode refused (%v) but changed the data directory: its wal held %d B before, %d B after",
					err, len(before[walName]), len(after[walName]))
			}
			var fe *FormatError
			if !errors.As(err, &fe) || fe.File != walName || fe.Offset != int64(len(wal)) {
				t.Fatalf("NewNode: %v; want a FormatError in %s at offset %d", err, walName, len(wal))
			}
			if cause := errors.Unwrap(fe); cause == nil || !strings.Contains(cause.Error(), tc.reason) {
				t.Fatalf("the FormatError's cause is %v, want the shard's %q", cause, tc.reason)
			}
		})
	}
}
