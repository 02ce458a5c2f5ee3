package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestMaybeCompressPayloadGates pins the two write-side gates: the size
// floor and an actual size win (the incompressible case is
// TestCompressShrinkFailKeepsCallerBuffer's). Only a floor-clearing
// compressible payload gets the envelope.
func TestMaybeCompressPayloadGates(t *testing.T) {
	big := bytes.Repeat([]byte("abcdefgh"), 256) // 2 KiB, highly compressible
	if env, _ := maybeCompressPayload(big[:compressFloor-1], new(wire.Deflater)); env != nil {
		wire.PutWriter(env)
		t.Fatal("compressed a sub-floor payload")
	}
	env, frame := maybeCompressPayload(big, new(wire.Deflater))
	if env == nil {
		t.Fatal("did not compress a floor-clearing compressible payload")
	}
	payload := wire.FramePayload(frame)
	if len(payload) >= len(big) {
		t.Fatalf("envelope %d bytes did not beat raw %d", len(payload), len(big))
	}
	got, _, err := decompressFrame(append([]byte(nil), payload...), wire.DefaultMaxFrame)
	wire.PutWriter(env)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("envelope did not round-trip: err %v", err)
	}
}

// TestDecompressFramePassthrough: a non-envelope frame must come back
// unchanged — every read path calls decompressFrame unconditionally.
func TestDecompressFramePassthrough(t *testing.T) {
	w := wire.NewWriter()
	appendHelloAck(w, []uint64{42})
	got, _, err := decompressFrame(w.Bytes(), wire.DefaultMaxFrame)
	if err != nil || !bytes.Equal(got, w.Bytes()) {
		t.Fatalf("passthrough mangled frame: %x err %v", got, err)
	}
	if got, _, err := decompressFrame(nil, wire.DefaultMaxFrame); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %x err %v", got, err)
	}
}

// TestDecompressFrameHostileEnvelopes: truncated headers, unknown
// algorithms, oversize declarations, and corrupt deflate bodies must all
// error without panicking or over-allocating.
func TestDecompressFrameHostileEnvelopes(t *testing.T) {
	env := func(build func(w *wire.Writer)) []byte {
		w := wire.NewWriter()
		w.Uvarint(tCompressed)
		build(w)
		return w.Bytes()
	}
	if _, _, err := decompressFrame(env(func(w *wire.Writer) { w.Uvarint(wire.CompFlate) }), wire.DefaultMaxFrame); err == nil {
		t.Fatal("truncated envelope header accepted")
	}
	if _, _, err := decompressFrame(env(func(w *wire.Writer) {
		w.Uvarint(99)
		w.Uvarint(10)
	}), wire.DefaultMaxFrame); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	var fse *wire.FrameSizeError
	_, _, err := decompressFrame(env(func(w *wire.Writer) {
		w.Uvarint(wire.CompFlate)
		w.Uvarint(1 << 40) // declared inflated size far past any frame limit
	}), wire.DefaultMaxFrame)
	if !errors.As(err, &fse) {
		t.Fatalf("oversize declaration error = %v, want FrameSizeError", err)
	}
	if _, _, err := decompressFrame(env(func(w *wire.Writer) {
		w.Uvarint(wire.CompFlate)
		w.Uvarint(16)
		w.Raw([]byte{0xff, 0xff, 0xff}) // not a deflate stream
	}), wire.DefaultMaxFrame); err == nil {
		t.Fatal("corrupt deflate body accepted")
	}
}

// FuzzDecompressFrame throws arbitrary bytes at the envelope unwrapper: it
// must never panic, never allocate past the frame limit, and anything it
// passes through or inflates must be stable under a second call.
func FuzzDecompressFrame(f *testing.F) {
	big := bytes.Repeat([]byte("abcdefgh"), 256)
	if env, frame := maybeCompressPayload(big, new(wire.Deflater)); env != nil {
		f.Add(append([]byte(nil), wire.FramePayload(frame)...))
		wire.PutWriter(env)
	}
	w := wire.NewWriter()
	appendHelloAck(w, []uint64{7})
	f.Add(append([]byte(nil), w.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{tCompressed})
	f.Add([]byte{tCompressed, 1, 4, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		const maxFrame = 1 << 16
		got, _, err := decompressFrame(b, maxFrame)
		if err != nil {
			return
		}
		if len(got) > maxFrame {
			t.Fatalf("inflated %d bytes past the %d frame limit", len(got), maxFrame)
		}
		// A decompressed frame is a plain frame: a second unwrap of a
		// non-envelope result must be the identity. (An inflated body that
		// itself starts with tCompressed is legal input; skip those.)
		r := wire.NewReader(got)
		if typ := r.Uvarint(); r.Err() == nil && typ == tCompressed {
			return
		}
		again, _, err := decompressFrame(got, maxFrame)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("unwrap not stable: err %v", err)
		}
	})
}

// TestCompressShrinkFailKeepsCallerBuffer is the regression for the pooled
// writer discipline on the compression-floor boundary. A tBatch that sits
// right at the floor, filled with incompressible bytes, fails the shrink
// check inside maybeCompressPayload — the path where the function discards
// its envelope writer. The caller's batch frame still lives in a pooled
// writer the caller has NOT returned, so nothing maybeCompressPayload puts
// back may alias it: a recycled aliasing writer would let the next
// GetWriter clobber the frame bytes while the raw send is still reading
// them. Churning the pool after the shrink-fail and checking the frame
// against a snapshot pins exactly that.
func TestCompressShrinkFailKeepsCallerBuffer(t *testing.T) {
	// xorshift-filled bytes do not deflate: stored-block overhead plus the
	// envelope header always lose, so the shrink check fails and the frame
	// ships raw.
	junk := make([]byte, 2048)
	s := uint64(0x9E3779B97F4A7C15)
	for i := range junk {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		junk[i] = byte(s)
	}
	for _, target := range []int{compressFloor - 1, compressFloor, compressFloor + 1} {
		// Size the update so the whole tBatch frame payload lands exactly
		// on target.
		var enc *wire.Writer
		for inner := target; inner > 0; inner-- {
			w := wire.GetWriter()
			appendBatchFrame(w, newSendingEnd(1), section{0, []protoUpdate{{Origin: 1, Seq: 9, Lamport: 300, Payload: junk[:inner]}}})
			if w.Len() == target {
				enc = w
				break
			}
			wire.PutWriter(w)
		}
		if enc == nil {
			t.Fatalf("no batch lands on %d bytes", target)
		}
		payload := enc.Bytes()
		snapshot := append([]byte(nil), payload...)

		if env, _ := maybeCompressPayload(payload, new(wire.Deflater)); env != nil {
			wire.PutWriter(env)
			if target < compressFloor {
				t.Fatalf("sub-floor %d-byte payload compressed", target)
			}
			t.Fatalf("incompressible %d-byte batch cleared the shrink check", target)
		}

		// The caller still holds enc checked out. Drain fresh writers from
		// the pool and fill them: if the shrink-fail path returned a writer
		// aliasing the batch frame, this churn rewrites the frame bytes.
		churn := make([]*wire.Writer, 8)
		for i := range churn {
			churn[i] = wire.GetWriter()
			churn[i].Raw(bytes.Repeat([]byte{0xEE}, target))
		}
		if !bytes.Equal(payload, snapshot) {
			t.Fatalf("target %d: pool churn clobbered the caller's batch frame — an aliasing writer was returned to the pool", target)
		}
		for _, w := range churn {
			wire.PutWriter(w)
		}
		wire.PutWriter(enc)
	}
}

// recordingConn is the node's end of a connection that keeps what each
// Write carried, one entry per call.
type recordingConn struct {
	net.Conn // nil: writeEnc calls SetWriteDeadline and Write only
	writes   [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, slices.Clone(p))
	return len(p), nil
}

func (c *recordingConn) SetWriteDeadline(time.Time) error { return nil }

// TestCompressedFrameIsOneWrite: a batch that clears the compression floor
// leaves in its envelope the way a raw frame leaves — header and payload in
// one Write, where they used to take two — with the same bytes the two
// writes carried (the envelope behind its length header), and BytesOut
// counts exactly those bytes. The payloads are seeded random letters, which
// the connection's stream finds nothing to refer back to and DEFLATE still
// codes in fewer bits, so the stream-coded frame clears the floor.
func TestCompressedFrameIsOneWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	us := make([]protoUpdate, 16)
	for i := range us {
		p := make([]byte, 64)
		for j := range p {
			p[j] = byte('a' + rng.Intn(26))
		}
		us[i] = protoUpdate{Origin: 1, Seq: uint64(i + 1), Lamport: uint64(i + 1), Payload: p}
	}
	var payload wire.Writer
	appendBatchFrame(&payload, newSendingEnd(1), section{0, us})
	if payload.Len() < compressFloor {
		t.Fatalf("a %d-byte batch does not clear the %d-byte floor", payload.Len(), compressFloor)
	}
	var env wire.Writer
	env.Uvarint(tCompressed)
	env.Uvarint(wire.CompFlate)
	env.Uvarint(uint64(payload.Len()))
	new(wire.Deflater).DeflateTo(&env, payload.Bytes())
	var want bytes.Buffer
	if _, err := wire.WriteFrame(&want, env.Bytes(), 0); err != nil {
		t.Fatal(err)
	}

	nd := bootNode(t, 0, 1, nil)
	before := nd.Stats()
	conn := &recordingConn{}
	enc := wire.NewWriter()
	enc.BeginFrame()
	enc.Raw(payload.Bytes())
	wrote, err := nd.writeEnc(conn, enc, wire.DefaultMaxFrame, new(wire.Deflater))
	if err != nil {
		t.Fatal(err)
	}
	if wrote != want.Len() {
		t.Fatalf("writeEnc reports %d bytes written, want the frame's %d", wrote, want.Len())
	}
	after := nd.Stats()
	if len(conn.writes) != 1 {
		t.Fatalf("a compressed batch took %d writes", len(conn.writes))
	}
	if got := conn.writes[0]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("wrote %d bytes %x, want the %d-byte framed envelope %x", len(got), got, want.Len(), want.Bytes())
	}
	if got := after.BytesOut - before.BytesOut; got != int64(want.Len()) {
		t.Fatalf("BytesOut grew by %d, want the frame's %d", got, want.Len())
	}
	if got := after.FramesOut - before.FramesOut; got != 1 {
		t.Fatalf("FramesOut grew by %d, want 1", got)
	}
}
