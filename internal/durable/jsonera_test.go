package durable

import (
	"encoding/json"
	"errors"
	"fmt"
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

// TestJSONEraRecordIsCorruption: a record whose body tag is not the binary
// one is damage like any other, however well-formed its frame. At the wal's
// tail it is a torn append — recovery keeps the prefix before it and cuts it
// off; in a sealed segment, where no next file covers it, it fails recovery
// instead of being guessed at.
func TestJSONEraRecordIsCorruption(t *testing.T) {
	events := sampleEvents(7)
	var good []byte
	for i, ev := range events[:6] {
		rec, err := encodeTestRecord(uint64(i), ev)
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, rec...)
	}
	old := jsonEraRecord(t, 6, events[6])

	dir := t.TempDir()
	writeFiles(t, dir, map[string][]byte{walName: append(append([]byte(nil), good...), old...)})
	l, hist, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events[:6])
	if err := l.Append(events[6]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, hist, err = Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eventsEqual(t, hist.Events, events)

	dir = t.TempDir()
	seg := fmt.Sprintf(segFormat, 0)
	writeFiles(t, dir, map[string][]byte{seg: append(append([]byte(nil), good...), old...)})
	var ce *CorruptionError
	if _, _, err := Open(dir, testMeta(), Options{NoSync: true}); !errors.As(err, &ce) || ce.File != seg {
		t.Fatalf("sealed JSON-era record: err = %v, want a CorruptionError in %s", err, seg)
	}
}
