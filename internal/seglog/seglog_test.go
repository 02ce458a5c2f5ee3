package seglog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// allocBytes returns how many bytes fn allocates (nothing else runs).
func allocBytes(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// checkAgainst compares every read the log offers with a plain slice
// holding the same elements.
func checkAgainst(t *testing.T, l *Log[int], ref []int, rng *rand.Rand) {
	t.Helper()
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, reference %d", l.Len(), len(ref))
	}
	if got := l.AppendTo(nil); !slices.Equal(got, ref) {
		t.Fatalf("AppendTo(nil) differs from the reference at length %d", len(ref))
	} else if (got == nil) != (len(ref) == 0) {
		t.Fatalf("AppendTo(nil) nil-ness: got nil=%v at length %d", got == nil, len(ref))
	}
	prefix := []int{-1, -2}
	if got := l.AppendTo(prefix); !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], ref) {
		t.Fatalf("AppendTo(prefix) differs from the reference at length %d", len(ref))
	}
	for i := 0; i < 8 && len(ref) > 0; i++ {
		j := rng.Intn(len(ref))
		if got := l.At(j); got != ref[j] {
			t.Fatalf("At(%d) = %d, reference %d", j, got, ref[j])
		}
	}
	// Ranges: the whole log, empty ones at both ends, and random ones, each
	// walked chunk by chunk.
	ranges := [][2]int{{0, len(ref)}, {0, 0}, {len(ref), len(ref)}}
	for i := 0; i < 8; i++ {
		from := rng.Intn(len(ref) + 1)
		ranges = append(ranges, [2]int{from, from + rng.Intn(len(ref)-from+1)})
	}
	for _, r := range ranges {
		var got []int
		for i := r[0]; i < r[1]; {
			c := l.Chunk(i, r[1])
			if len(c) == 0 {
				t.Fatalf("Chunk(%d, %d) is empty inside a non-empty range", i, r[1])
			}
			if i>>segShift != (i+len(c)-1)>>segShift {
				t.Fatalf("Chunk(%d, %d) spans two segments", i, r[1])
			}
			if end := min(r[1], (i>>segShift+1)<<segShift); i+len(c) != end {
				t.Fatalf("Chunk(%d, %d) stops at %d, want %d", i, r[1], i+len(c), end)
			}
			got = append(got, c...)
			i += len(c)
		}
		if !slices.Equal(got, ref[r[0]:r[1]]) {
			t.Fatalf("range [%d,%d) differs from the reference", r[0], r[1])
		}
		if r[0] == r[1] && l.Chunk(r[0], r[1]) != nil {
			t.Fatalf("Chunk(%d, %d) of an empty range is not nil", r[0], r[1])
		}
	}
}

// TestLogMatchesSliceReference grows a log next to a plain slice and
// compares them at every length that matters: empty, one, each side of the
// first segment's doublings, and each side of several segment boundaries.
func TestLogMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stops := map[int]bool{0: true, 1: true, firstCap - 1: true, firstCap: true, firstCap + 1: true}
	for s := 1; s <= 4; s++ {
		for d := -1; d <= 1; d++ {
			stops[s*SegmentLen+d] = true
		}
	}
	for i := 0; i < 40; i++ {
		stops[rng.Intn(4*SegmentLen+2)] = true
	}
	var l Log[int]
	var ref []int
	for n := 0; n <= 4*SegmentLen+1; n++ {
		if stops[n] {
			checkAgainst(t, &l, ref, rng)
		}
		v := rng.Int()
		l.Append(v)
		ref = append(ref, v)
	}
}

// TestChunkSurvivesAppends pins the aliasing contract: a chunk handed out
// keeps its contents across later appends, including the ones that move the
// still-growing first segment.
func TestChunkSurvivesAppends(t *testing.T) {
	var l Log[int]
	for i := 0; i < firstCap; i++ {
		l.Append(i)
	}
	early := l.Chunk(0, firstCap)
	for i := firstCap; i < 2*SegmentLen; i++ {
		l.Append(i)
	}
	late := l.Chunk(SegmentLen, SegmentLen+5)
	for i := 0; i < SegmentLen; i++ {
		l.Append(-1)
	}
	for i, v := range early {
		if v != i {
			t.Fatalf("early chunk[%d] = %d after appends", i, v)
		}
	}
	for i, v := range late {
		if v != SegmentLen+i {
			t.Fatalf("late chunk[%d] = %d after appends", i, v)
		}
	}
}

func TestChunkOutOfRangePanics(t *testing.T) {
	var l Log[int]
	l.Append(1)
	for _, r := range [][2]int{{-1, 0}, {1, 0}, {0, 2}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Chunk(%d, %d) on a 1-element log did not panic", r[0], r[1])
				}
			}()
			l.Chunk(r[0], r[1])
		}()
	}
}

// TestAppendCostIndependentOfLength is the property the package exists for:
// no append allocates more than one segment, and the total allocated stays
// within a small factor of what the elements occupy, however long the log.
func TestAppendCostIndependentOfLength(t *testing.T) {
	type elem [64]byte
	const n = 64 * SegmentLen
	var l Log[elem]
	var total, worst float64
	for i := 0; i < n; i += SegmentLen / 2 {
		// AllocsPerRun would average the spike away; bytes per half-segment
		// burst is read from the allocator directly.
		b := allocBytes(func() {
			for j := 0; j < SegmentLen/2; j++ {
				l.Append(elem{})
			}
		})
		total += b
		worst = max(worst, b)
	}
	const segBytes = SegmentLen * 64
	if worst > 1.1*segBytes {
		t.Errorf("one burst of %d appends allocated %.0f B, more than a segment (%d B)", SegmentLen/2, worst, segBytes)
	}
	if occupied := float64(n) * 64; total > 1.1*occupied {
		t.Errorf("%d appends allocated %.0f B for %.0f B of elements", n, total, occupied)
	}
}

var sink Log[[184]byte]

// BenchmarkAppend appends an event-sized element behind logs of different
// lengths: ns/op and B/op must not depend on the length. The log is cut
// back to that length every 64 segments (dropping tail segments, which
// costs nothing), so memory stays bounded however large b.N gets.
//
//	go test ./internal/seglog -run '^$' -bench Append -benchmem
func BenchmarkAppend(b *testing.B) {
	for _, behind := range []int{1 << 10, 1 << 18} {
		b.Run(fmt.Sprintf("behind=%d", behind), func(b *testing.B) {
			sink = Log[[184]byte]{}
			for i := 0; i < behind; i++ {
				sink.Append([184]byte{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sink.n == behind+64*SegmentLen {
					sink.segs, sink.n = sink.segs[:behind/SegmentLen], behind
				}
				sink.Append([184]byte{})
			}
		})
	}
}

// TestBlocks covers the byte-record log: records come back in order from a
// snapshot, a record handed out is unchanged (and unmoved) by later appends
// and is what From finds at the position Append gave for it, the first
// blocks grow geometrically to BlockSize, no record straddles two blocks,
// and an oversized record gets a block of its own.
func TestBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l Blocks
	if blocks, n := l.Snapshot(); len(blocks) != 0 || n != 0 || l.Len() != 0 {
		t.Fatalf("empty log snapshots as %d blocks, %d records", len(blocks), n)
	}
	var ref, kept [][]byte
	var where []Pos
	add := func(n int) {
		rec := make([]byte, n)
		rng.Read(rec)
		ref = append(ref, rec)
		got, at := l.Append(rec)
		if !slices.Equal(got, rec) || (n > 0 && &got[0] == &rec[0]) {
			t.Fatalf("Append returned %x for %x (or the caller's own memory)", got, rec)
		}
		kept = append(kept, got)
		where = append(where, at)
	}
	for i := 0; i < 3000; i++ {
		add(rng.Intn(120))
	}
	add(3*BlockSize + 7) // oversized
	for i := 0; i < 1000; i++ {
		add(1 + rng.Intn(120))
	}

	blocks, n := l.Snapshot()
	if n != len(ref) || l.Len() != len(ref) {
		t.Fatalf("Len %d, snapshot %d records, appended %d", l.Len(), n, len(ref))
	}
	total := 0
	for i, b := range blocks {
		want := BlockSize
		if i < growSteps {
			want = firstBlock << i
		}
		if cap(b) != want && cap(b) != 3*BlockSize+7 {
			t.Errorf("block %d has capacity %d, want %d (or the oversized record's own)", i, cap(b), want)
		}
		total += len(b)
	}
	// Records in order, each whole inside one block, where Append said it
	// was and as it was appended.
	bi, pos := 0, 0
	for i, rec := range ref {
		if len(rec) == 0 {
			continue
		}
		for pos == len(blocks[bi]) {
			bi, pos = bi+1, 0
		}
		b := blocks[bi]
		if pos+len(rec) > len(b) || !slices.Equal(b[pos:pos+len(rec)], rec) {
			t.Fatalf("record %d is not the next %d bytes of block %d", i, len(rec), bi)
		}
		if &b[pos] != &kept[i][0] || !slices.Equal(kept[i], rec) {
			t.Fatalf("record %d: the slice Append returned moved or changed", i)
		}
		if from := l.From(where[i]); len(from) != len(b)-pos || &from[0] != &b[pos] || cap(from) != len(from) {
			t.Fatalf("record %d: From(%v) is not block %d from offset %d to its end", i, where[i], bi, pos)
		}
		if len(rec) > BlockSize && (pos != 0 || len(b) != len(rec)) {
			t.Errorf("the oversized record shares its block (offset %d of %d bytes)", pos, len(b))
		}
		pos += len(rec)
	}
	if bi != len(blocks)-1 || pos != len(blocks[bi]) {
		t.Fatalf("records end at block %d offset %d, the snapshot at block %d offset %d", bi, pos, len(blocks)-1, len(blocks[len(blocks)-1]))
	}

	// A snapshot is a point in time: later appends leave it as it was.
	before := total
	add(40)
	after := 0
	for _, b := range blocks {
		after += len(b)
	}
	if after != before {
		t.Fatalf("a later append grew an earlier snapshot from %d to %d bytes", before, after)
	}
}

// TestBlocksOpenClose covers a record written head first. Closed in place,
// the record is the head and the tail, and the head Open returned is its
// first bytes. A tail longer than what is left behind the head straddles
// the block: the head keeps its bytes where it was, the record goes whole
// into the next block, and it reads back, from the snapshot and from its
// position, as head then tail. A head larger than a block gets a block of
// its own with the room asked for, so its record is stored once.
func TestBlocksOpenClose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var l Blocks
	check := func(what string, head, tail, opened, rec []byte, at Pos) {
		t.Helper()
		want := append(slices.Clone(head), tail...)
		if !slices.Equal(opened, head) {
			t.Fatalf("%s: the head Open returned is %x, want %x", what, opened, head)
		}
		if !slices.Equal(rec, want) || cap(rec) != len(rec) {
			t.Fatalf("%s: Close returned %x, want %x", what, rec, want)
		}
		if from := l.From(at); len(from) < len(want) || !slices.Equal(from[:len(want)], want) {
			t.Fatalf("%s: From(%v) does not start with the record", what, at)
		}
		blocks, n := l.Snapshot()
		if n != l.Len() {
			t.Fatalf("%s: snapshot of %d records, Len %d", what, n, l.Len())
		}
		if last := blocks[len(blocks)-1]; !slices.Equal(last[len(last)-len(want):], want) {
			t.Fatalf("%s: the last block does not end with the record", what)
		}
	}

	// In place.
	l.Append(bytesOf(100))
	head, tail := bytesOf(30), bytesOf(20)
	opened := l.Open(head, 20)
	if blocks, n := l.Snapshot(); n != 1 || len(blocks[0]) != 100 {
		t.Fatalf("an open record shows in the snapshot: %d records, %d bytes", n, len(blocks[0]))
	}
	rec, at := l.Close(tail)
	check("in place", head, tail, opened, rec, at)
	if &opened[0] != &rec[0] || l.Len() != 2 {
		t.Fatalf("closed in place, the record is not where its head was (Len %d)", l.Len())
	}

	// Straddling: fill the first block but for the head and the room.
	l.Append(bytesOf(firstBlock - 150 - 40 - 8))
	head, tail = bytesOf(40), bytesOf(100)
	opened = l.Open(head, 8)
	before, _ := l.Snapshot()
	rec, at = l.Close(tail)
	check("straddling", head, tail, opened, rec, at)
	after, _ := l.Snapshot()
	if len(after) != len(before)+1 || len(after[0]) != len(before[0]) || at != (Pos{1, 0}) {
		t.Fatalf("the straddling record is at %v in %d blocks, want the start of a new one", at, len(after))
	}
	if head := after[0][len(after[0]) : len(after[0])+len(opened)]; &head[0] != &opened[0] {
		t.Fatal("the straddling head moved")
	}
	l.Append(bytesOf(cap(after[1]) - len(after[1]))) // fills the new block, not the sealed one
	if blocks, _ := l.Snapshot(); len(blocks) != 2 || len(blocks[0]) != len(after[0]) {
		t.Fatal("an append wrote into the block a straddle sealed")
	}
	if !slices.Equal(opened, head) {
		t.Fatal("the straddling head's bytes changed")
	}

	// Larger than a block.
	head, tail = bytesOf(BlockSize+100), bytesOf(50)
	opened = l.Open(head, 64)
	rec, at = l.Close(tail)
	check("oversized", head, tail, opened, rec, at)
	if &opened[0] != &rec[0] {
		t.Fatal("an oversized record was stored twice")
	}

	for what, misuse := range map[string]func(){
		"Close with nothing open": func() { l.Close(nil) },
		"Open while open":         func() { l.Open(nil, 0); defer l.Close(nil); l.Open(nil, 0) },
		"Append while open":       func() { l.Open(nil, 0); defer l.Close(nil); l.Append(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", what)
				}
			}()
			misuse()
		}()
	}
}
