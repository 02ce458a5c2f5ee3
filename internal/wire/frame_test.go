package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if _, err := WriteFrame(&buf, p, 0); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip: got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("read past last frame: %v, want io.EOF", err)
	}
}

func TestWriteFrameReportsBytesWritten(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, []byte("abc"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 || buf.Len() != 7 {
		t.Fatalf("wrote %d bytes (buffer %d), want 7", n, buf.Len())
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	_, err := WriteFrame(&buf, make([]byte, 11), 10)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FrameSizeError", err)
	}
	if fse.Size != 11 || fse.Max != 10 {
		t.Fatalf("FrameSizeError = %+v", fse)
	}
	if buf.Len() != 0 {
		t.Fatal("oversize frame partially written")
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A 4-byte header declaring 4 GiB-1 of payload must be rejected before
	// allocation, not trusted.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	_, err := ReadFrame(bytes.NewReader(hdr), 0)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FrameSizeError", err)
	}
	if fse.Max != DefaultMaxFrame {
		t.Fatalf("limit = %d, want DefaultMaxFrame", fse.Max)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	// Header truncated mid-way.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: %v, want io.ErrUnexpectedEOF", err)
	}
	// Payload shorter than the header declares.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	buf.Write(hdr[:])
	buf.WriteString("short")
	if _, err := ReadFrame(&buf, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameCustomLimit(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 63); err == nil {
		t.Fatal("frame above the reader's limit was accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 64); err != nil {
		t.Fatalf("frame at the limit rejected: %v", err)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to ReadFrame: it must never
// panic, never allocate beyond the limit, and every successfully read
// payload must re-encode to a frame ReadFrame accepts again.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0, 0, 0, 5, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 12
		payload, err := ReadFrame(bytes.NewReader(data), limit)
		if err != nil {
			return
		}
		if len(payload) > limit {
			t.Fatalf("payload of %d bytes exceeds limit %d", len(payload), limit)
		}
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, payload, limit); err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		back, err := ReadFrame(&buf, limit)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("round trip changed payload: %v", err)
		}
	})
}

// TestReadFrameIntoReusesBuffer pins what a connection handler relies on: a
// frame that fits the buffer passed in lands in that buffer, one that does
// not gets a larger one, a short frame after a long one is exactly its own
// bytes, and reading into a warmed buffer allocates nothing.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	long, short := bytes.Repeat([]byte{0xCD}, 300), []byte("ok")
	var stream bytes.Buffer
	for _, p := range [][]byte{short, long, short, nil} {
		if _, err := WriteFrame(&stream, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	buf := make([]byte, 16)
	got, err := ReadFrameInto(r, 0, buf)
	if err != nil || !bytes.Equal(got, short) || &got[0] != &buf[0] {
		t.Fatalf("frame that fits: %q err %v (or it left the caller's buffer)", got, err)
	}
	grown, err := ReadFrameInto(r, 0, got)
	if err != nil || !bytes.Equal(grown, long) {
		t.Fatalf("frame beyond the buffer: %d bytes err %v", len(grown), err)
	}
	got, err = ReadFrameInto(r, 0, grown)
	if err != nil || !bytes.Equal(got, short) || &got[0] != &grown[0] {
		t.Fatalf("short frame after a long one: %q err %v", got, err)
	}
	if got, err = ReadFrameInto(r, 0, got); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %q err %v", got, err)
	}

	frames := stream.Bytes()
	if avg := testing.AllocsPerRun(100, func() {
		r.Reset(frames)
		for {
			b, err := ReadFrameInto(r, 0, grown)
			if err != nil {
				return
			}
			grown = b
		}
	}); avg != 0 {
		t.Fatalf("reading into a warmed buffer allocates %.0f times per stream", avg)
	}
}

// TestReadFrameIntoGuardsBeforeGrowth: a hostile length prefix is refused
// before the buffer grows to hold it.
func TestReadFrameIntoGuardsBeforeGrowth(t *testing.T) {
	stream := []byte{0x7F, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	hostile := bytes.NewReader(nil)
	buf := make([]byte, 8)
	var err error
	if avg := testing.AllocsPerRun(10, func() {
		hostile.Reset(stream)
		_, err = ReadFrameInto(hostile, 64, buf)
	}); avg > 1 { // the error value
		t.Fatalf("refusing a hostile frame allocated %.0f times", avg)
	}
	var fse *FrameSizeError
	if !errors.As(err, &fse) || fse.Size != 0x7FFFFFFF || fse.Max != 64 {
		t.Fatalf("err = %v, want *FrameSizeError{0x7FFFFFFF, 64}", err)
	}
}

// FuzzReusedFrameBuffer reads an arbitrary byte stream frame after frame
// twice — through one buffer handed from call to call, as a connection
// handler does, and through ReadFrame, which allocates per frame — and
// demands the same payloads and the same errors from both. The reused
// buffer starts dirty, so a frame that showed bytes it did not carry (the
// tail of a longer predecessor) would differ from its fresh-buffer twin.
func FuzzReusedFrameBuffer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x05long!\x00\x00\x00\x02hi\x00\x00\x00\x00\x00\x00\x00\x01x"))
	f.Add([]byte("\x00\x00\x00\x02hi\xff\xff\xff\xffboom"))
	f.Add([]byte("\x00\x00\x00\x03abc\x00\x00\x00\x09short"))
	f.Add([]byte("\x00\x00\x00\x01a\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 12
		fresh, reused := bytes.NewReader(data), bytes.NewReader(data)
		buf := bytes.Repeat([]byte{0xEE}, 8)
		for {
			want, wantErr := ReadFrame(fresh, limit)
			before := buf[:cap(buf)]
			got, gotErr := ReadFrameInto(reused, limit, buf)
			var wantFSE, gotFSE *FrameSizeError
			if errors.As(wantErr, &wantFSE) != errors.As(gotErr, &gotFSE) || (wantFSE != nil && *wantFSE != *gotFSE) {
				t.Fatalf("size errors differ: fresh %v, reused %v", wantErr, gotErr)
			}
			if wantFSE == nil && wantErr != gotErr {
				t.Fatalf("errors differ: fresh %v, reused %v", wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("payloads differ: fresh %q, reused %q", want, got)
			}
			if len(got) > limit {
				t.Fatalf("payload of %d bytes exceeds limit %d", len(got), limit)
			}
			if len(got) > 0 && len(got) <= len(before) && &got[0] != &before[0] {
				t.Fatalf("a %d-byte frame left a %d-byte buffer", len(got), len(before))
			}
			if len(got) > 0 {
				buf = got
			}
		}
	})
}

var frameSink []byte

// BenchmarkReadFrame reads a stream of small frames (the size of a client
// request or a short batch) with a fresh buffer per frame and with one
// reused buffer.
//
//	go test ./internal/wire -run '^$' -bench ReadFrame -benchmem
func BenchmarkReadFrame(b *testing.B) {
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		if _, err := WriteFrame(&stream, bytes.Repeat([]byte{byte(i)}, 24+i), 0); err != nil {
			b.Fatal(err)
		}
	}
	frames := stream.Bytes()
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			r := bytes.NewReader(frames)
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					r.Reset(frames)
				}
				var err error
				if reuse {
					buf, err = ReadFrameInto(r, 0, buf)
				} else {
					buf, err = ReadFrame(r, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			frameSink = buf
		})
	}
}
