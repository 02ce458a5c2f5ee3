package seglog

import "slices"

// BlockSize is the capacity of a full block of a Blocks log. The first
// blocks are smaller — firstBlock bytes, doubling up to BlockSize — so a
// log of ten records does not pay for a full block.
const (
	BlockSize  = firstBlock << growSteps
	firstBlock = 512
	growSteps  = 5
)

// Blocks is an append-only log of variable-length byte records, held in
// byte blocks. A record is copied into the log once and is never copied,
// moved or split across two blocks afterwards, so a slice of it stays
// valid, and unchanged, for as long as anything holds it. A record may also
// be written head first (Open, then Close), so that its first fields are
// the log's before the rest is known. Blocks are plain
// []byte: the collector never scans them, however long the log, and
// dropping a prefix of the log is dropping head blocks. The zero value is
// an empty log. It is not safe for concurrent use, but see Snapshot and
// From.
type Blocks struct {
	blocks [][]byte // len(block) bytes are in use; whole records, in order
	n      int
	// open is set while a record is open (Open): its head, head bytes long,
	// lies in the last block's spare capacity, just past len.
	open bool
	head int
}

// Pos is where a record starts in a Blocks log: its block and its offset in
// that block. It is eight bytes and holds no pointer, so an index of records
// — a Log[Pos] — costs the collector nothing however long it grows.
type Pos struct {
	block, off uint32
}

// Back returns the position n bytes before p in p's block: where a record
// that lies n bytes ahead of the one at p starts. n must not exceed p's
// offset in its block.
func (p Pos) Back(n int) Pos {
	if n < 0 || uint32(n) > p.off {
		panic("seglog: Back past the start of a block")
	}
	return Pos{p.block, p.off - uint32(n)}
}

// Distance returns how many bytes the record at q starts before p, and
// whether q lies at or before p in p's block; records in two blocks have no
// distance.
func (p Pos) Distance(q Pos) (int, bool) {
	if p.block != q.block || q.off > p.off {
		return 0, false
	}
	return int(p.off - q.off), true
}

// Len returns the number of records appended.
func (l *Blocks) Len() int { return l.n }

// Append copies rec to the end of the log and returns the log's copy, which
// must not be written to, and where it starts. It allocates at most one
// block — when rec does not fit in what is left of the last one — and a
// record larger than a block gets a block of its own. It panics while a
// record is open.
func (l *Blocks) Append(rec []byte) ([]byte, Pos) {
	if l.open {
		panic("seglog: Append while a record is open")
	}
	last := l.spare(len(rec))
	b := l.blocks[last]
	from := len(b)
	b = append(b, rec...) // within capacity: the block does not move
	l.blocks[last] = b
	l.n++
	return b[from:len(b):len(b)], Pos{uint32(last), uint32(from)}
}

// Open starts the next record with its head: it copies head into the last
// block's spare capacity, leaving at least room bytes free behind it (a new
// block, of its own if the head is larger than a block, when the last one
// has less), and returns the log's copy, which must not be written to. The
// head is not a record yet — Len, Snapshot and From do not see it — until
// Close appends the rest. Its bytes are never written again, whatever Close
// does, so a slice of it stays valid, and unchanged, for as long as anything
// holds it, like a slice of a record. One record is open at a time.
func (l *Blocks) Open(head []byte, room int) []byte {
	if l.open {
		panic("seglog: Open while a record is open")
	}
	b := l.blocks[l.spare(len(head)+room)]
	h := b[len(b) : len(b)+len(head) : len(b)+len(head)] // spare capacity
	copy(h, head)
	l.open, l.head = true, len(head)
	return h
}

// Close appends tail behind the open head, counts head and tail as one
// record, and returns it and where it starts, as Append does. When the tail
// is longer than the space left behind the head, the head's block is sealed
// as it stands — the head's bytes stay, past its last record — and the whole
// record is appended to a new block; Open's room makes this rare.
func (l *Blocks) Close(tail []byte) ([]byte, Pos) {
	if !l.open {
		panic("seglog: Close with no record open")
	}
	l.open = false
	last := len(l.blocks) - 1
	b := l.blocks[last]
	from := len(b)
	b = b[:from+l.head] // the head, in place
	if cap(b)-len(b) < len(tail) {
		head := b[from:]
		last = l.spare(len(head) + len(tail)) // less is left: a new block
		b = l.blocks[last]
		from = len(b)
		b = append(b, head...)
	}
	b = append(b, tail...)
	l.blocks[last] = b
	l.n++
	return b[from:len(b):len(b)], Pos{uint32(last), uint32(from)}
}

// End returns where the next record starts if Append places it in the last
// block, and how many bytes it may be for that: the last block's spare
// capacity (0, and the zero Pos, for an empty log). A record no longer than
// that is placed there, so a record may be encoded against where it will
// lie — a distance back to a record before it (Pos.Distance) — before it is
// appended. It must not be called while a record is open.
func (l *Blocks) End() (Pos, int) {
	last := len(l.blocks) - 1
	if last < 0 {
		return Pos{}, 0
	}
	b := l.blocks[last]
	return Pos{uint32(last), uint32(len(b))}, cap(b) - len(b)
}

// spare returns the index of a last block with at least n bytes of spare
// capacity, allocating it when the last one has less.
func (l *Blocks) spare(n int) int {
	last := len(l.blocks) - 1
	if last < 0 || cap(l.blocks[last])-len(l.blocks[last]) < n {
		size := firstBlock << min(len(l.blocks), growSteps)
		l.blocks = append(l.blocks, make([]byte, 0, max(size, n)))
		last++
	}
	return last
}

// From returns the log from the record Append placed at `at` to the end of
// that record's block as it stands: the record, which the caller delimits
// (the log does not keep lengths), and whatever was appended behind it in
// the same block. It aliases the log's storage and must not be written to.
// From reads the block table, which every Append writes: a reader on
// another goroutine must exclude Append for the call — not for its use of
// the result, which no later append touches.
func (l *Blocks) From(at Pos) []byte {
	b := l.blocks[at.block]
	return b[at.off:len(b):len(b)]
}

// Snapshot returns the log as it stands — its blocks, each cut to the bytes
// in use, and the number of records they hold — in time proportional to the
// number of blocks. The table is the caller's; the blocks alias the log's
// storage, must not be written to, and may be read from another goroutine
// while the owner keeps appending: an append only ever writes past what the
// snapshot covers.
func (l *Blocks) Snapshot() (blocks [][]byte, records int) {
	return slices.Clone(l.blocks), l.n
}
