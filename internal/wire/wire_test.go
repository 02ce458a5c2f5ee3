package wire

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/model"
	"repro/internal/vclock"
)

func TestUvarintRoundTrip(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1} {
		w := NewWriter()
		w.Uvarint(x)
		r := NewReader(w.Bytes())
		if got := r.Uvarint(); got != x || r.Err() != nil {
			t.Fatalf("round trip %d: got %d, err %v", x, got, r.Err())
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	for _, x := range []int64{0, -1, 1, -64, 63, -1 << 40, 1 << 40} {
		w := NewWriter()
		w.Varint(x)
		r := NewReader(w.Bytes())
		if got := r.Varint(); got != x || r.Err() != nil {
			t.Fatalf("round trip %d: got %d, err %v", x, got, r.Err())
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "x", "hello world", "with\x00nul"} {
		w := NewWriter()
		w.String(s)
		r := NewReader(w.Bytes())
		if got := r.String(); got != s || r.Err() != nil {
			t.Fatalf("round trip %q: got %q, err %v", s, got, r.Err())
		}
	}
}

// TestStringViewSharesTheBuffer: StringView decodes what String decodes,
// fails where it fails, and allocates nothing: the string is the buffer's
// bytes.
func TestStringViewSharesTheBuffer(t *testing.T) {
	strs := []string{"", "x", "hello world", "with\x00nul"}
	w := NewWriter()
	for _, s := range strs {
		w.String(s)
	}
	buf := w.Bytes()
	var r Reader
	r.Reset(buf)
	for _, s := range strs {
		data := len(buf) - r.Remaining() + 1 // behind a one-byte length
		got := r.StringView()
		if got != s || r.Err() != nil {
			t.Fatalf("view %q: got %q, err %v", s, got, r.Err())
		}
		if s != "" && unsafe.StringData(got) != &buf[data] {
			t.Errorf("view %q does not share the buffer", s)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Reset(buf); _ = r.StringView() }); allocs != 0 {
		t.Errorf("StringView allocates %.0f times, want 0", allocs)
	}
	r.Reset(buf[:len(buf)-1])
	for range 4 {
		_ = r.StringView()
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("a view past the end: err %v, want ErrTruncated", r.Err())
	}
}

func TestDotRoundTrip(t *testing.T) {
	d := model.Dot{Origin: 7, Seq: 1 << 30}
	w := NewWriter()
	w.Dot(d)
	r := NewReader(w.Bytes())
	if got := r.Dot(); got != d || r.Err() != nil {
		t.Fatalf("round trip %v: got %v, err %v", d, got, r.Err())
	}
}

func TestVCRoundTrip(t *testing.T) {
	v := vclock.VC{0, 5, 1 << 33, 2}
	w := NewWriter()
	w.VC(v)
	r := NewReader(w.Bytes())
	if got := r.VC(); !got.Equal(v) || r.Err() != nil {
		t.Fatalf("round trip %s: got %s, err %v", v, got, r.Err())
	}
}

// TestSparseVCRoundTrip decodes into a clock that held another one: the
// entries the encoding skips must read zero, not what was there.
func TestSparseVCRoundTrip(t *testing.T) {
	v := vclock.VC{0, 5, 0, 0, 9}
	w := NewWriter()
	w.SparseVC(v)
	r := NewReader(w.Bytes())
	got := vclock.VC{1, 2, 3, 4, 5}
	if r.SparseVC(got); !got.Equal(v) || r.Err() != nil {
		t.Fatalf("round trip %s: got %s, err %v", v, got, r.Err())
	}
}

func TestSparseBeatsDenseOnSparseClocks(t *testing.T) {
	v := vclock.New(64)
	v.Set(3, 100)
	dense := NewWriter()
	dense.VC(v)
	sparse := NewWriter()
	sparse.SparseVC(v)
	if sparse.Len() >= dense.Len() {
		t.Fatalf("sparse %dB not smaller than dense %dB on a 1/64 clock", sparse.Len(), dense.Len())
	}
}

func TestTruncatedPayloadErrors(t *testing.T) {
	w := NewWriter()
	w.String("hello")
	buf := w.Bytes()[:3]
	r := NewReader(buf)
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
}

func TestEmptyReaderErrors(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uvarint()
	if r.Err() == nil {
		t.Fatal("expected error reading from empty payload")
	}
	// Errors are sticky and subsequent reads return zero values.
	if r.Uvarint() != 0 || r.String() != "" {
		t.Fatal("post-error reads should return zero values")
	}
}

func TestCorruptVCCountRejected(t *testing.T) {
	w := NewWriter()
	w.Uvarint(1 << 40) // implausible element count
	r := NewReader(w.Bytes())
	if got := r.VC(); got != nil || r.Err() == nil {
		t.Fatal("expected corrupt count rejection")
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := rng.Uint64() >> uint(rng.Intn(60))
		i := rng.Int63() - rng.Int63()
		s := make([]byte, rng.Intn(20))
		rng.Read(s)
		v := vclock.New(rng.Intn(6))
		for j := range v {
			v[j] = uint64(rng.Intn(1000))
		}
		w := NewWriter()
		w.Uvarint(u)
		w.String(string(s))
		w.Varint(i)
		w.VC(v)
		r := NewReader(w.Bytes())
		return r.Uvarint() == u && r.String() == string(s) && r.Varint() == i &&
			r.VC().Equal(v) && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSparseVCRejectsOutOfRangeIndex is the FuzzReader regression: a sparse
// clock entry with an index past the caller's clock, however large, must be
// rejected rather than grown into.
func TestSparseVCRejectsOutOfRangeIndex(t *testing.T) {
	for _, idx := range []uint64{4, 1 << 40} {
		w := NewWriter()
		w.Uvarint(1) // one entry
		w.Uvarint(idx)
		w.Uvarint(7)
		r := NewReader(w.Bytes())
		got := vclock.New(4)
		if r.SparseVC(got); r.Err() == nil {
			t.Fatalf("index %d: decoded %v; want rejection", idx, got)
		}
	}
}

// TestEndRejectsTrailingBytes: End is the strict decoders' closing check — a
// payload read to its last byte passes, one with bytes left over is
// ErrTrailing, and an earlier decode error wins over both.
func TestEndRejectsTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.Uvarint(300)
	w.String("abc")
	exact := NewReader(w.Bytes())
	exact.Uvarint()
	if exact.End() == nil {
		t.Fatal("End passed with the string still unread")
	}
	if s := exact.String(); s != "abc" || exact.End() != nil {
		t.Fatalf("End after reading %q to the end: %v", s, exact.End())
	}
	long := NewReader(append(w.Bytes(), 0))
	long.Uvarint()
	_ = long.String()
	if err := long.End(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("End with one byte left = %v, want ErrTrailing", err)
	}
	short := NewReader(w.Bytes()[:3])
	short.Uvarint()
	_ = short.String()
	if err := short.End(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("End after a truncated read = %v, want ErrTruncated", err)
	}
}
