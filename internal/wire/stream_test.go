package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// mixedFrames returns n seeded bodies shaped like a replication link's
// batch frames under a small mixed workload: one to four sections of a
// two-shard node, each a run of updates whose payloads carry a dot, one
// of 64 keys, a 16-byte value of fresh random letters and a dependency
// vector of three entries.
func mixedFrames(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seqs := []uint64{0, 0}
	frames := make([][]byte, n)
	for i := range frames {
		w := NewWriter()
		for sec := 1 + rng.Intn(2); sec > 0; sec-- {
			shard := rng.Intn(2)
			count := 1 + rng.Intn(6)
			w.Uvarint(uint64(shard))
			w.Uvarint(uint64(count))
			w.Uvarint(0)
			for ; count > 0; count-- {
				seqs[shard]++
				p := NewWriter()
				p.Uvarint(1)
				p.Dot(model.Dot{Origin: 0, Seq: seqs[shard]})
				p.String(fmt.Sprintf("key-%05d", rng.Intn(64)))
				v := []byte(fmt.Sprintf("c%d.%d.", rng.Intn(8), seqs[shard]))
				for len(v) < 16 {
					v = append(v, byte('a'+rng.Intn(26)))
				}
				p.String(string(v))
				for d := 0; d < 3; d++ {
					p.Uvarint(seqs[shard] + uint64(rng.Intn(40)))
				}
				w.Uvarint(uint64(1 + rng.Intn(3)))
				w.Uvarint(uint64(p.Len()))
				w.Raw(p.Bytes())
			}
		}
		frames[i] = w.Bytes()
	}
	return frames
}

// streamRoundTrip codes bodies through one encoder and decodes them through
// one decoder, as the two ends of a connection do, and fails unless every
// body comes back and its stream fits StreamBound. It returns the stream's
// bytes.
func streamRoundTrip(t testing.TB, bodies [][]byte) int {
	t.Helper()
	var enc StreamEncoder
	var dec StreamDecoder
	w := NewWriter()
	coded := 0
	for i, body := range bodies {
		w.Reset()
		enc.Encode(w, body)
		if w.Len() > StreamBound(len(body)) {
			t.Fatalf("body %d: %d bytes coded to %d, above StreamBound %d", i, len(body), w.Len(), StreamBound(len(body)))
		}
		coded += w.Len()
		got, err := dec.Decode(w.Bytes(), uint64(len(body)), 0)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("body %d decoded to %x, want %x", i, got, body)
		}
	}
	return coded
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 3*StreamWindow)
	rng.Read(random)
	big := make([]byte, streamMinCap+StreamWindow)
	rng.Read(big)
	cases := map[string][][]byte{
		"empty bodies":    {nil, {}, []byte("x"), nil},
		"short bodies":    {[]byte("abc"), []byte("abcd"), []byte("abcdabcd"), []byte("abcd")},
		"a run of a byte": {bytes.Repeat([]byte{'z'}, 1000)},
		"overlapping":     {[]byte("abcabcabcabcabcabcabcabc")},
		"random":          {random[:5000], random[:5000], random[100:9000]},
		// Bodies that slide the history, some repeating what slid out of
		// the window, then one past the history's capacity, which grows it,
		// and more that slide the grown history.
		"past the window": {random, random[:StreamWindow], bytes.Repeat([]byte("pattern "), StreamWindow/4), random[StreamWindow:],
			random, random, random, big, random, big[:StreamWindow], big, random},
		"mixed frames": mixedFrames(1, 500),
	}
	for name, bodies := range cases {
		t.Run(name, func(t *testing.T) { streamRoundTrip(t, bodies) })
	}
}

// TestStreamCarriesRepeatsOnce: what the stream carried before costs a body
// a back-reference, not its bytes, across bodies as within one; and bytes
// no earlier body holds cost at most a literal header more than they are.
func TestStreamCarriesRepeatsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, 400)
	rng.Read(block)
	var enc StreamEncoder
	w := NewWriter()
	enc.Encode(w, block)
	if w.Len() != StreamBound(len(block)) {
		t.Fatalf("a first body of random bytes coded to %d, want %d: itself and one literal header", w.Len(), StreamBound(len(block)))
	}
	w.Reset()
	enc.Encode(w, block)
	if w.Len() > 4 {
		t.Fatalf("a body the stream carried whole coded to %d bytes, want one match token", w.Len())
	}
	frames := mixedFrames(3, 2000)
	raw := 0
	for _, f := range frames {
		raw += len(f)
	}
	coded := streamRoundTrip(t, frames)
	if ratio := float64(coded) / float64(raw); ratio > 0.85 {
		t.Fatalf("mixed frames coded to %.1f%% of their %d bytes, want well below 85%%", 100*ratio, raw)
	} else {
		t.Logf("%d mixed frames: %d bytes coded to %d (%.1f%%)", len(frames), raw, coded, 100*ratio)
	}
}

// TestStreamDecoderRefuses: the decoder fails closed. Each body below is
// refused, and a refused body leaves the stream as it was, so the next
// valid body still decodes.
func TestStreamDecoderRefuses(t *testing.T) {
	tok := func(xs ...uint64) []byte {
		w := NewWriter()
		for _, x := range xs {
			w.Uvarint(x)
		}
		return w.Bytes()
	}
	lit := func(s string) []byte { return append(tok(uint64(len(s))<<1), s...) }
	match := func(m, d uint64) []byte { return tok((m-4)<<1|1, d-1) }
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	history := lit("0123456789") // the stream's first body: 10 bytes

	for _, tc := range []struct {
		name   string
		body   []byte
		rawLen uint64
		want   error
	}{
		{"a match past the history", match(4, 11), 4, ErrStream},
		{"a match within the body past the history", cat(lit("ab"), match(4, 13)), 6, ErrStream},
		{"a match past the window", cat(lit(string(make([]byte, StreamWindow))), match(4, StreamWindow+1)), StreamWindow + 4, ErrStream},
		{"a literal past rawLen", lit("abcdef"), 5, ErrStream},
		{"a match past rawLen", match(8, 10), 7, ErrStream},
		{"a body short of rawLen", lit("abc"), 4, ErrStream},
		{"trailing bytes", cat(lit("abc"), lit("d")), 3, ErrStream},
		{"a trailing match", cat(lit("abc"), match(4, 3)), 3, ErrStream},
		{"an empty literal", cat(tok(0), lit("abc")), 3, ErrStream},
		{"a literal past the body", tok(10 << 1), 10, ErrStream},
		{"a token cut short", []byte{0x80}, 1, ErrStream},
		{"a distance cut short", []byte{0x01}, 4, ErrStream},
		{"rawLen above the frame limit", lit("abc"), 1 << 21, new(FrameSizeError)},
		{"rawLen past any int", lit("abc"), 1<<64 - 1, new(FrameSizeError)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d StreamDecoder
			if _, err := d.Decode(history, 10, 0); err != nil {
				t.Fatal(err)
			}
			got, err := d.Decode(tc.body, tc.rawLen, 1<<20)
			var fse *FrameSizeError
			if err == nil || (errors.As(tc.want, &fse) != errors.As(err, &fse)) || (tc.want == ErrStream && !errors.Is(err, ErrStream)) {
				t.Fatalf("decoded %q, err %v; want %T", got, err, tc.want)
			}
			// The stream is as it was: a match of the first body's bytes
			// still decodes.
			got, err = d.Decode(match(6, 10), 6, 0)
			if err != nil || string(got) != "012345" {
				t.Fatalf("after the refusal the stream decodes %q, err %v; want \"012345\"", got, err)
			}
		})
	}
}

// TestStreamHoldsWhatItCarried: each end's buffers start at the first
// body's size and grow with what the stream carries, so a link that carried
// one small frame holds a few KiB, not the 144 KiB of full-size buffers;
// after StreamWindow and more they are at full size. A decoder whose history
// starts at full size, as every decoder's did before, decodes the same
// stream: the sizes decide when a history slides, never what a
// back-reference may reach.
func TestStreamHoldsWhatItCarried(t *testing.T) {
	body := bytes.Join(mixedFrames(7, 3), nil)[:200]
	var enc StreamEncoder
	var dec StreamDecoder
	full := StreamDecoder{hist: make([]byte, 0, streamMinCap)}
	w := NewWriter()
	frames := append([][]byte{body}, mixedFrames(8, 2000)...)
	for i, f := range frames {
		w.Reset()
		enc.Encode(w, f)
		for _, d := range []*StreamDecoder{&dec, &full} {
			got, err := d.Decode(w.Bytes(), uint64(len(f)), 0)
			if err != nil || !bytes.Equal(got, f) {
				t.Fatalf("frame %d: decoded %x, %v; want %x", i, got, err, f)
			}
		}
		if held := cap(enc.hist) + 4*cap(enc.table) + cap(dec.hist); i == 0 && held > 8<<10 {
			t.Fatalf("an encoder and a decoder that carried one 200 B body hold %d B, want at most 8 KiB", held)
		}
	}
	if cap(enc.hist) != streamMinCap || len(enc.table) != 1<<streamHashBits || cap(dec.hist) != streamMinCap {
		t.Fatalf("after %d frames: encoder history %d B and table %d slots, decoder history %d B; want %d, %d, %d",
			len(frames), cap(enc.hist), len(enc.table), cap(dec.hist), streamMinCap, 1<<streamHashBits, streamMinCap)
	}
}

// TestStreamDecodeAllocatesNothing: once a connection's history exists,
// neither end allocates per body.
func TestStreamDecodeAllocatesNothing(t *testing.T) {
	frames := mixedFrames(4, 256)
	var enc StreamEncoder
	var dec StreamDecoder
	w := NewWriter()
	i := 0
	step := func() {
		f := frames[i%len(frames)]
		i++
		w.Reset()
		enc.Encode(w, f)
		if _, err := dec.Decode(w.Bytes(), uint64(len(f)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * len(frames) {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("a body costs %.2f allocations, want 0", a)
	}
}

// FuzzStreamDecode decodes a sequence of arbitrary bodies over one stream,
// as a connection does: no body may panic the decoder, a body it accepts
// decodes to exactly its declared length, and a refused one leaves the
// stream as it was. Then bodies cut from the same bytes round-trip through
// one encoder and one decoder (decode∘encode = id), within StreamBound.
func FuzzStreamDecode(f *testing.F) {
	var enc StreamEncoder
	frames := mixedFrames(5, 3)
	var seeds [][]byte
	for _, fr := range frames {
		w := NewWriter()
		enc.Encode(w, fr)
		seeds = append(seeds, w.Bytes())
	}
	f.Add(seeds[0], seeds[1], uint16(len(frames[0])), uint16(len(frames[1])))
	f.Add(seeds[1], seeds[2], uint16(len(frames[1])), uint16(len(frames[2])))
	f.Add([]byte{0x06, 'a', 'b', 'c', 0x03, 0x02}, []byte{0x01, 0x00}, uint16(8), uint16(4))
	f.Add([]byte{0x80}, []byte{}, uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, a, b []byte, na, nb uint16) {
		var dec StreamDecoder
		for _, in := range []struct {
			body []byte
			n    uint16
		}{{a, na}, {b, nb}} {
			before := append([]byte(nil), dec.hist...)
			got, err := dec.Decode(in.body, uint64(in.n), 1<<16)
			if err != nil {
				if !bytes.Equal(dec.hist, before) {
					t.Fatalf("a refused body changed the stream")
				}
				continue
			}
			if len(got) != int(in.n) {
				t.Fatalf("decoded %d bytes, declared %d", len(got), in.n)
			}
		}

		// decode∘encode = id over bodies cut from a and b.
		var bodies [][]byte
		for _, src := range [][]byte{a, b, a, append(append([]byte(nil), b...), a...)} {
			bodies = append(bodies, src[:min(len(src), int(na)%(len(src)+1))], src)
		}
		streamRoundTrip(t, bodies)
	})
}

// BenchmarkStream codes a seeded sequence of mixed-workload frame bodies
// through one encoder and decodes them through one decoder: the cost one
// batch frame adds to a link, both ends, and what the stream carries of it
// (stream-%: coded bytes per raw byte). 0 allocs/op.
func BenchmarkStream(b *testing.B) {
	frames := mixedFrames(6, 1024)
	var enc StreamEncoder
	var dec StreamDecoder
	w := NewWriter()
	var raw, coded int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		w.Reset()
		enc.Encode(w, f)
		if _, err := dec.Decode(w.Bytes(), uint64(len(f)), 0); err != nil {
			b.Fatal(err)
		}
		raw += int64(len(f))
		coded += int64(w.Len())
	}
	b.ReportMetric(100*float64(coded)/float64(raw), "stream-%")
}
