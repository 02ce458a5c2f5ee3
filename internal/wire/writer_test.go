package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestRawBytesRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f}
	w := NewWriter()
	w.Uvarint(uint64(len(payload)))
	w.Raw(payload)
	w.Uvarint(7) // trailing field proves Bytes consumed exactly its span

	r := NewReader(w.Bytes())
	got := r.Bytes()
	if !bytes.Equal(got, payload) {
		t.Fatalf("Bytes() = %x, want %x", got, payload)
	}
	if x := r.Uvarint(); x != 7 || r.Err() != nil {
		t.Fatalf("trailing field = %d, err %v", x, r.Err())
	}
}

// TestBytesAliasesBuffer pins the zero-copy contract: the returned slice
// shares the reader's backing array (so receive paths that retain it must
// copy), and its capacity is clipped to its length (so appending to it
// cannot clobber bytes the reader has yet to decode).
func TestBytesAliasesBuffer(t *testing.T) {
	w := NewWriter()
	w.Uvarint(3)
	w.Raw([]byte{1, 2, 3})
	w.Uvarint(9)
	buf := w.Bytes()

	r := NewReader(buf)
	b := r.Bytes()
	if cap(b) != len(b) {
		t.Fatalf("cap(b) = %d, want %d (three-index slice must clip capacity)", cap(b), len(b))
	}
	buf[1] = 42 // first payload byte
	if b[0] != 42 {
		t.Fatal("Bytes() copied instead of aliasing the buffer")
	}
	if got := append(b, 0xff); got[3] == buf[4] {
		// The append must have reallocated; reaching the shared array here
		// would mean capacity clipping failed.
		t.Fatal("append to Bytes() result wrote into the reader's buffer")
	}
	if x := r.Uvarint(); x != 9 || r.Err() != nil {
		t.Fatalf("trailing field = %d, err %v", x, r.Err())
	}
}

func TestBytesTruncatedRejected(t *testing.T) {
	w := NewWriter()
	w.Uvarint(10)
	w.Raw([]byte{1, 2}) // claims 10, holds 2
	r := NewReader(w.Bytes())
	if b := r.Bytes(); b != nil || r.Err() == nil {
		t.Fatalf("Bytes() on truncated field = %x, err %v; want nil, error", b, r.Err())
	}
}

// TestVCCountBoundaryRejected is the regression for the off-by-one guard:
// the old check allowed a declared count of Remaining()+1 — one more entry
// than the buffer can possibly hold — which then failed later and sloppier,
// after allocating for the impossible count.
func TestVCCountBoundaryRejected(t *testing.T) {
	w := NewWriter()
	w.Uvarint(3)        // declared entries
	w.Raw([]byte{1, 2}) // only two bytes remain: 3 > 2 must be rejected up front
	r := NewReader(w.Bytes())
	if v := r.VC(); v != nil || r.Err() == nil {
		t.Fatalf("VC with count Remaining+1 = %v, err %v; want nil, error", v, r.Err())
	}
}

func TestBeginEndFrame(t *testing.T) {
	w := NewWriter()
	w.BeginFrame()
	w.Uvarint(11)
	w.String("hello")
	frame, err := w.EndFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	// The frame must be readable by a FrameReader, byte-compatible with the
	// WriteFrame format.
	payload, err := NewFrameReader(bytes.NewReader(frame)).ReadFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(payload)
	if x := r.Uvarint(); x != 11 {
		t.Fatalf("field = %d, want 11", x)
	}
	if s := r.String(); s != "hello" || r.Err() != nil {
		t.Fatalf("string = %q, err %v", s, r.Err())
	}

	// Sequential frames in one writer after Reset.
	w.Reset()
	w.BeginFrame()
	w.Uvarint(5)
	if _, err := w.EndFrame(0); err != nil {
		t.Fatal(err)
	}
}

func TestEndFrameOversize(t *testing.T) {
	w := NewWriter()
	w.BeginFrame()
	w.Raw(make([]byte, 100))
	_, err := w.EndFrame(50)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FrameSizeError", err)
	}
	if fse.Size != 100 || fse.Max != 50 {
		t.Fatalf("FrameSizeError = %+v", fse)
	}
	// The frame stays open after the failure; Reset recovers the writer.
	w.Reset()
	w.BeginFrame()
	w.Uvarint(1)
	if _, err := w.EndFrame(0); err != nil {
		t.Fatal(err)
	}
}

func TestBeginFrameNestedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginFrame did not panic")
		}
	}()
	w := NewWriter()
	w.BeginFrame()
	w.BeginFrame()
}

func TestWriterPoolRoundTrip(t *testing.T) {
	w := GetWriter()
	w.Uvarint(123)
	if len(w.Bytes()) == 0 {
		t.Fatal("pooled writer did not encode")
	}
	PutWriter(w)
	w2 := GetWriter()
	defer PutWriter(w2)
	if len(w2.Bytes()) != 0 {
		t.Fatal("GetWriter returned a non-reset writer")
	}
	w2.BeginFrame()
	w2.Uvarint(1)
	if _, err := w2.EndFrame(0); err != nil {
		t.Fatal(err)
	}
}
