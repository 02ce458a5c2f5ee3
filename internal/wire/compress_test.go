package wire

import (
	"bytes"
	"testing"
)

func TestDeflateInflateRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("x"),
		bytes.Repeat([]byte("the same twelve bytes over and over "), 100),
		func() []byte { // incompressible-ish: a varint counter stream
			w := NewWriter()
			for i := uint64(0); i < 4096; i++ {
				w.Uvarint(i * 2654435761)
			}
			return append([]byte(nil), w.Bytes()...)
		}(),
	}
	for i, raw := range cases {
		w := NewWriter()
		n := DeflateTo(w, raw)
		if n != w.Len() {
			t.Fatalf("case %d: DeflateTo returned %d, wrote %d", i, n, w.Len())
		}
		out, err := Inflate(w.Bytes(), len(raw))
		if err != nil {
			t.Fatalf("case %d: Inflate: %v", i, err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("case %d: round trip mismatch: got %d bytes, want %d", i, len(out), len(raw))
		}
	}
}

func TestDeflateDeterministic(t *testing.T) {
	raw := bytes.Repeat([]byte("deterministic output matters for golden vectors "), 64)
	a, b := NewWriter(), NewWriter()
	DeflateTo(a, raw)
	DeflateTo(b, raw)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two deflates of the same input differ (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestDeflaterReusedMatchesFresh: a connection's own Deflater, used frame
// after frame, writes what a new one (and the pooled DeflateTo) writes for
// the same input — no state leaks from one frame into the next — and after
// its first frame it allocates nothing.
func TestDeflaterReusedMatchesFresh(t *testing.T) {
	frames := [][]byte{
		bytes.Repeat([]byte("first frame, long enough to fill the match tables "), 80),
		[]byte("x"),
		nil,
		bytes.Repeat([]byte("third frame shares substrings with the first frame "), 40),
	}
	var kept Deflater
	w := NewWriter()
	for i, raw := range frames {
		w.Reset()
		n := kept.DeflateTo(w, raw)
		fresh, pooled := NewWriter(), NewWriter()
		new(Deflater).DeflateTo(fresh, raw)
		DeflateTo(pooled, raw)
		if n != w.Len() || !bytes.Equal(w.Bytes(), fresh.Bytes()) || !bytes.Equal(w.Bytes(), pooled.Bytes()) {
			t.Fatalf("frame %d: reused deflater wrote %d bytes, a fresh one %d, the pooled one %d (or different ones)", i, w.Len(), fresh.Len(), pooled.Len())
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		w.Reset()
		kept.DeflateTo(w, frames[0])
	}); allocs != 0 {
		t.Fatalf("a kept deflater allocates %.0f times per frame", allocs)
	}
}

func TestInflateLengthContract(t *testing.T) {
	raw := bytes.Repeat([]byte("abc"), 500)
	w := NewWriter()
	DeflateTo(w, raw)
	// Declared length too short: the stream keeps going past it.
	if _, err := Inflate(w.Bytes(), len(raw)-1); err == nil {
		t.Fatal("Inflate accepted a stream longer than its declared length")
	}
	// Declared length too long: the stream ends early.
	if _, err := Inflate(w.Bytes(), len(raw)+1); err == nil {
		t.Fatal("Inflate accepted a stream shorter than its declared length")
	}
	if _, err := Inflate(w.Bytes(), -1); err == nil {
		t.Fatal("Inflate accepted a negative length")
	}
	// Corrupt stream.
	mangled := append([]byte(nil), w.Bytes()...)
	for i := range mangled {
		mangled[i] ^= 0x5a
	}
	if _, err := Inflate(mangled, len(raw)); err == nil {
		t.Fatal("Inflate accepted a corrupt stream")
	}
}
