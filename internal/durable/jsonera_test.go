package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// jsonEraRecord frames ev the way builds before the binary journal did: a
// valid length and CRC around (index, event JSON). The body opens with '{'
// where the format tag belongs.
func jsonEraRecord(t *testing.T, index uint64, ev cluster.Event) []byte {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter()
	w.Raw(make([]byte, 8))
	w.Uvarint(index)
	w.Uvarint(uint64(len(data)))
	w.Raw(data)
	putFrameHeader(w.Bytes())
	return w.Bytes()
}

// withTail lays out dir as a node that journaled events leaves it, meta.json
// included, with tail appended to the file name, and returns what the file
// held before the tail.
func withTail(t *testing.T, dir, name string, events []cluster.Event, tail []byte) []byte {
	t.Helper()
	writeLog(t, dir, events, Options{NoSync: true})
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(slices.Clip(data), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJSONEraRecordRefused: a record whose body tag is not the binary one
// is intact however foreign its body, since its length, CRC and framing
// hold: it is a FormatError wherever it sits — at the wal's tail, where it
// is not taken for a torn append and cut off, and in a sealed segment —
// and the directory is left as it was.
func TestJSONEraRecordRefused(t *testing.T) {
	events := sampleEvents(7)
	old := jsonEraRecord(t, 6, events[6])
	opts := Options{NoSync: true}

	dir := t.TempDir()
	withTail(t, dir, walName, events[:6], old)
	requireRefused(t, dir, walName, opts)

	// A segment holding the same records ahead of the wal's.
	dir = t.TempDir()
	withTail(t, dir, walName, events[:6], nil)
	seg := fmt.Sprintf(segFormat, 0)
	var good []byte
	for i, ev := range events[:6] {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, rec...)
	}
	writeFiles(t, dir, map[string][]byte{seg: append(good, old...)})
	requireRefused(t, dir, seg, opts)
}

// TestUnknownRecordKindRefused: a record of the binary format whose event is
// of a kind this build does not know (0x21) is intact, so a build that
// meets one at the wal's tail refuses the directory, byte for byte as it
// found it, rather than cut off what a later build wrote.
func TestUnknownRecordKindRefused(t *testing.T) {
	events := sampleEvents(6)
	unknown, err := appendRecord(nil, uint64(len(events)), []byte{0x21, 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	withTail(t, dir, walName, events, unknown)
	requireRefused(t, dir, walName, Options{NoSync: true})
}

// TestZeroFilledTailTruncates: a crash can leave the wal's tail zero-filled
// (the file's length reached the disk, its blocks did not). A zero header
// declares an empty payload, whose CRC-32C is 0 too, so only the framing —
// a payload with no index in it — tells it from a record; it is torn, cut
// off, and the log goes on from the prefix before it.
func TestZeroFilledTailTruncates(t *testing.T) {
	events := sampleEvents(7)
	dir := t.TempDir()
	good := withTail(t, dir, walName, events[:6], make([]byte, 64))
	opts := Options{NoSync: true}
	l, hist, err := Open(dir, testMeta(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events[:6])
	if wal, err := os.ReadFile(filepath.Join(dir, walName)); err != nil || !bytes.Equal(wal, good) {
		t.Fatalf("the wal holds %d B after recovery, want the %d B of its intact records (%v)", len(wal), len(good), err)
	}
	if err := l.Append(events[6]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, hist, err = Open(dir, testMeta(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)
}
