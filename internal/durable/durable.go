// Package durable persists one cluster node's recorded event history to
// disk, turning the history a node replays at boot into a crash-surviving
// artifact: a served process can be kill -9'd and restarted from its data
// directory alone.
//
// The design is a write-ahead log whose tail is periodically sealed onto an
// append-only snapshot, so no step costs more than the tail it handles:
//
//   - wal.log is append-only. Each record frames one cluster.Event behind a
//     4-byte length and a CRC-32C of the payload, and Append fsyncs before
//     returning. The node invokes Append on its event loop as each
//     do/send/receive is recorded and BEFORE the update's acknowledgement
//     (or the client's response) leaves the process, so any event a peer
//     holds an ack for is durable — the PR 4 crash-window invariant, now
//     across process death.
//   - snap.log holds the sealed prefix 0..k-1 in the same record format.
//     Once the wal holds SnapshotEvery records, a seal appends exactly those
//     records to snap.log, fsyncs it, and only then truncates the wal, so
//     snapshot ∪ wal covers every acknowledged event at every instant. A
//     crash between the fsync and the truncate leaves the wal overlapping
//     the snapshot, which the per-record event index detects and skips.
//     Sealed records are never rewritten, and a seal costs O(tail)
//     whatever the history's length.
//   - Recovery (Open) loads the snapshot, then scans the wal tail. A torn
//     or corrupted tail frame — short header, short payload, CRC mismatch,
//     undecodable event — truncates the file at the last good record and
//     recovery stops there: the log is a prefix of what the node recorded,
//     never a fabrication. An index *gap* inside otherwise-valid records is
//     different: it cannot result from a torn append, so it is reported as
//     corruption instead of silently skipped.
//   - A seal can tear too (the crash hit mid-append to snap.log). Because
//     the wal is truncated only after the seal is on disk, a torn seal
//     always sits beside a wal that still holds its records: recovery may
//     stop at an unreadable snapshot record ONLY IF the wal supplies every
//     event index from that record onward, truncates snap.log at the last
//     good boundary, and finishes the seal from the wal before the first
//     Append. Damage the wal does not cover — wal missing, empty, or
//     starting past it — is corruption and fails recovery.
//
// The recovered history is what cluster.NodeStorage.Open hands the node to
// replay (Storage, in storage.go, is that seam's implementation), so the
// restart path is the same code the in-process supervisor exercises.
//
// Contract:
//
//   - OWNS: the data directory — meta.json, wal.log, snap.log, tree.ckpt —
//     their record framing, fsync ordering and recovery rules, and the
//     group-commit coordinator shard logs share.
//   - MUST NOT: dial, listen or know a frame type; decide what an event
//     means (it stores cluster.Event in cluster's own binary encoding); or
//     repair damage by guessing — a record it cannot read is torn or
//     corrupt, never reinterpreted.
//   - MUST NOT import: anything above internal/cluster (cmd/..., the
//     simulator, the stores).
package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

const (
	walName  = "wal.log"
	snapName = "snap.log"
	metaName = "meta.json"

	// maxRecord bounds one framed record: larger than any replication
	// payload the stores produce, small enough that a corrupted length
	// prefix cannot force an unbounded allocation during recovery.
	maxRecord = 16 << 20
)

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMetaMismatch reports a data directory that belongs to a different
// node, cluster size, or store than the one opening it — restoring it
// would replay another replica's history into this one.
var ErrMetaMismatch = errors.New("durable: data directory belongs to a different node configuration")

// CorruptionError reports damage recovery must not repair by guessing: an
// unreadable snapshot record the wal no longer covers, or an event-index
// gap between otherwise valid records (which a torn append cannot produce).
type CorruptionError struct {
	File   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("durable: %s corrupt at offset %d: %s", e.File, e.Offset, e.Reason)
}

// Meta identifies whose history a data directory holds. It is written on
// first open and verified on every reopen.
type Meta struct {
	Node  model.ReplicaID `json:"node"`
	N     int             `json:"n"`
	Store string          `json:"store"`
	// Shard/Shards pin a sharded node's per-shard directory to its shard, so
	// two shard directories (whose logs carry overlapping (origin, seq)
	// domains) can never be swapped into each other's place. Zero on
	// single-shard directories — canon() folds Shards==1 down to zero, so
	// meta.json files written before sharding verify unchanged.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
}

// canon normalizes the single-shard representations (Shards 0 and 1 mean
// the same thing) so old and new meta files compare equal.
func (m Meta) canon() Meta {
	if m.Shards <= 1 {
		m.Shard, m.Shards = 0, 0
	}
	return m
}

// Options tune the log.
type Options struct {
	// SnapshotEvery is the number of records between seals: once the wal
	// holds this many, they are appended to the snapshot and the wal is
	// truncated. Zero means the default (1024); negative disables sealing.
	SnapshotEvery int
	// NoSync skips the per-append fsync (tests that only exercise framing
	// and recovery logic, not crash safety, run much faster without it).
	NoSync bool
	// Group, when non-nil, routes per-append fsyncs through a shared
	// GroupCommitter so logs that commit concurrently (a sharded node's
	// per-shard journals) coalesce into one fsync round. Durability
	// semantics are unchanged — Append still returns only after its record
	// is on disk. Ignored under NoSync.
	Group *GroupCommitter
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	return o
}

// Log is one node's open durable history. Append is called from the node's
// event loop (one goroutine), but Close can arrive from a different
// shutdown goroutine, so the mutex serializes them.
//
// The log holds no copy of the history: a count, and the framed bytes of
// the unsealed wal tail — bounded by SnapshotEvery records — which are what
// the next seal appends to the snapshot.
type Log struct {
	dir  string
	meta Meta
	opts Options

	mu       sync.Mutex
	wal      *os.File
	snap     *os.File // snap.log, opened by the first seal
	ckpt     *os.File // tree.ckpt, likewise
	count    int      // events in the log, sealed and unsealed
	walCount int      // records currently in the wal tail
	tail     []byte   // those records as framed; unused when sealing is off
	closed   bool

	// tree is the Merkle forest over the journaled broadcast history,
	// updated in the same Append that journals each send/receive. It is
	// handed to the cluster node (NodeStorage.Open's tree) and read from the
	// node's event loop — the same goroutine that calls Append — so the
	// forest needs no locking of its own. ckptCount is, per origin, how
	// many of its update hashes tree.ckpt already holds.
	tree      *membership.Forest
	ckptCount []uint64
}

// Tree returns the log's Merkle forest over its broadcast history.
func (l *Log) Tree() *membership.Forest { return l.tree }

// Open opens (or initializes) the data directory and recovers the event
// history it holds. The returned history is nil when the directory holds no
// events yet (a fresh boot); otherwise it is exactly what the node replays.
// The caller must Close the log after the node has shut down.
func Open(dir string, meta Meta, opts Options) (*Log, *cluster.History, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	if err := checkMeta(dir, meta); err != nil {
		return nil, nil, err
	}

	// Leftover temp files are renames that never happened (meta.json, or a
	// snapshot rewrite by a build that still compacted that way); what they
	// were to replace is still authoritative.
	removeGlob(filepath.Join(dir, "*.tmp"))

	events, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	snapCount := len(events)
	events, tail, overlap, err := recoverWal(filepath.Join(dir, walName), events, opts.SnapshotEvery > 0)
	if err != nil {
		return nil, nil, err
	}

	tree, ckptCount, err := buildTree(dir, meta.N, events)
	if err != nil {
		return nil, nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	l := &Log{
		dir: dir, meta: meta, opts: opts,
		wal: wal, count: len(events), walCount: len(events) - snapCount, tail: tail,
		tree: tree, ckptCount: ckptCount,
	}
	if overlap {
		// The wal repeats sealed records: a seal was interrupted after some
		// or all of its records reached the snapshot. Finish it, so wal and
		// snapshot are disjoint again before the first Append.
		if err := l.seal(); err != nil {
			l.closeFiles()
			return nil, nil, err
		}
	}

	var hist *cluster.History
	if len(events) > 0 {
		hist = &cluster.History{Node: meta.Node, N: meta.N, Store: meta.Store, Events: events}
	}
	return l, hist, nil
}

// Len returns the number of events currently in the log.
func (l *Log) Len() int { return l.count }

// Append persists one event: frame, write, fsync. It must complete before
// the event's effects are acknowledged to any peer or client — the node's
// event loop guarantees that by journaling at record time. An error means
// the event may not be durable; the node fail-stops on it.
func (l *Log) Append(ev cluster.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: append to closed log")
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	rec, err := encodeRecord(w, uint64(l.count), ev)
	if err != nil {
		return err
	}
	if _, err := l.wal.Write(rec); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if !l.opts.NoSync {
		if g := l.opts.Group; g != nil {
			// Group commit: the round's fsync starts after the write above
			// (Commit guarantees it), so acked ⇒ on-disk holds exactly as
			// with the direct Sync. l.mu stays held — each log has its own,
			// so other shards' appends proceed and pile into the round.
			if err := g.Commit(l.wal); err != nil {
				return fmt.Errorf("durable: wal group sync: %w", err)
			}
		} else if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("durable: wal sync: %w", err)
		}
	}
	sealing := l.opts.SnapshotEvery > 0
	if sealing {
		l.tail = append(l.tail, rec...)
	}
	l.count++
	l.walCount++
	if err := hashEvent(l.tree, ev); err != nil {
		// The event is durable but the tree cannot describe it: a seq gap
		// the node should never produce. Fail-stop rather than serve
		// digests that would "prove" divergence to every joiner.
		return err
	}
	if sealing && l.walCount >= l.opts.SnapshotEvery {
		return l.seal()
	}
	return nil
}

// The points inside seal at which testCrashSeal is called.
const (
	crashSealed    = "sealed"    // snap.log fsynced, wal not yet truncated
	crashTruncated = "truncated" // wal truncated, tree.ckpt not yet extended
)

// testCrashSeal, when non-nil, runs inside seal at each of the points above.
// Tests install a panicking hook to simulate a kill -9 in exactly that
// window.
var testCrashSeal func(point string)

// seal moves the wal tail onto the snapshot: append the tail's records to
// snap.log, fsync, truncate the wal, extend the tree checkpoint. Ordering
// is what makes a crash at any point safe: the records are durable in
// snap.log before the wal shrinks, so the union of snapshot and wal always
// covers every appended event; overlap is resolved by record index at
// recovery, and so is a torn append to snap.log (see readSnapshot).
func (l *Log) seal() error {
	if len(l.tail) > 0 {
		if err := l.appendDurably(&l.snap, snapName, l.tail); err != nil {
			return fmt.Errorf("durable: snapshot: %w", err)
		}
	}
	if testCrashSeal != nil {
		testCrashSeal(crashSealed)
	}
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("durable: wal truncate: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("durable: wal sync: %w", err)
		}
	}
	l.walCount = 0
	l.tail = l.tail[:0]
	if testCrashSeal != nil {
		testCrashSeal(crashTruncated)
	}
	// Checkpoint the hashes this seal added, so the next Open skips
	// rehashing the sealed prefix.
	return l.appendTreeCkpt()
}

// appendDurably appends data to the directory's file name through *f, which
// it opens on first use, and fsyncs it — and the directory too when the
// open created the file: a new entry needs that once.
func (l *Log) appendDurably(f **os.File, name string, data []byte) error {
	created := false
	if *f == nil {
		path := filepath.Join(l.dir, name)
		file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if os.IsNotExist(err) {
			file, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			created = true
		}
		if err != nil {
			return err
		}
		*f = file
	}
	if _, err := (*f).Write(data); err != nil {
		return err
	}
	if l.opts.NoSync {
		return nil
	}
	if err := (*f).Sync(); err != nil {
		return err
	}
	if created {
		syncDir(l.dir)
	}
	return nil
}

// Close syncs and closes the wal. Call after the node has shut down (no
// Appends can arrive once the event loop has exited).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.wal.Sync()
	l.closeFiles()
	if err != nil {
		return fmt.Errorf("durable: close sync: %w", err)
	}
	return nil
}

// closeFiles closes the log's descriptors. Everything written through them
// was fsynced by the step that wrote it, so close errors carry no news.
func (l *Log) closeFiles() {
	l.wal.Close()
	if l.snap != nil {
		l.snap.Close()
	}
	if l.ckpt != nil {
		l.ckpt.Close()
	}
}

// checkMeta verifies (or initializes) the directory's identity file.
func checkMeta(dir string, meta Meta) error {
	path := filepath.Join(dir, metaName)
	meta = meta.canon()
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var have Meta
		if err := json.Unmarshal(data, &have); err != nil {
			return &CorruptionError{File: metaName, Reason: err.Error()}
		}
		if have.canon() != meta {
			return fmt.Errorf("%w: directory holds r%d/%d/%s (shard %d/%d), node is r%d/%d/%s (shard %d/%d)",
				ErrMetaMismatch, have.Node, have.N, have.Store, have.Shard, have.Shards,
				meta.Node, meta.N, meta.Store, meta.Shard, meta.Shards)
		}
		return nil
	case os.IsNotExist(err):
		data, err := json.Marshal(meta)
		if err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		syncDir(dir)
		return nil
	default:
		return fmt.Errorf("durable: %w", err)
	}
}

// journalBinaryTag is the first body byte of every record: it names the
// body's format, cluster's binary event encoding, and is the one byte a
// future format would change. A body opening with anything else is damage.
const journalBinaryTag = 0x01

// encodeRecord frames one event: length | crc32c | payload, where the
// payload is (uvarint index, length-prefixed body) and the body is the tag
// byte followed by the event in cluster's binary encoding. The returned
// slice aliases a pooled writer; the caller must finish with it before the
// next encodeRecord call on the same writer, which Append satisfies by
// writing it out (and copying it onto the tail) immediately.
func encodeRecord(w *wire.Writer, index uint64, ev cluster.Event) ([]byte, error) {
	w.Reset()
	// Reserve the 8-byte header; the payload is framed in place behind it.
	w.Raw([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	w.Uvarint(index)
	body := wire.GetWriter()
	body.Raw([]byte{journalBinaryTag})
	if err := cluster.AppendEventBinary(body, ev); err != nil {
		wire.PutWriter(body)
		return nil, fmt.Errorf("durable: encode event: %w", err)
	}
	w.Uvarint(uint64(len(body.Bytes())))
	w.Raw(body.Bytes())
	wire.PutWriter(body)
	rec := w.Bytes()
	payload := rec[8:]
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("durable: record of %d bytes exceeds limit %d", len(payload), maxRecord)
	}
	putFrameHeader(rec)
	return rec, nil
}

// putFrameHeader fills the 8 bytes reserved at the front of a frame with
// the length and CRC-32C of the payload behind them.
func putFrameHeader(frame []byte) {
	be32(frame[0:4], uint32(len(frame)-8))
	be32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
}

func be32(b []byte, x uint32) {
	b[0], b[1], b[2], b[3] = byte(x>>24), byte(x>>16), byte(x>>8), byte(x)
}

func rd32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// errTorn marks every way a record can be damaged: short header, short
// payload, implausible length, CRC mismatch, unknown body tag, undecodable
// event.
var errTorn = errors.New("durable: torn record")

// recordReader reads framed records through one buffer, so recovery costs
// one read syscall per buffer-full rather than two per record, and one
// payload buffer grown to the largest record rather than one per record.
type recordReader struct {
	r       *bufio.Reader
	good    int64   // offset just past the last intact record
	hdr     [8]byte // the last record read, as framed: header and
	payload []byte  // payload, valid until the next call
}

func newRecordReader(f *os.File) *recordReader {
	return &recordReader{r: bufio.NewReaderSize(f, 64<<10)}
}

// next reads one record. It returns io.EOF at a clean record boundary and
// errTorn for damage; either way good is the last intact boundary.
func (rr *recordReader) next() (index uint64, ev cluster.Event, err error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, ev, io.EOF
		}
		return 0, ev, errTorn // short header
	}
	size := rd32(rr.hdr[0:4])
	if size > maxRecord {
		return 0, ev, errTorn // implausible length (corrupted prefix)
	}
	if cap(rr.payload) < int(size) {
		rr.payload = make([]byte, size)
	}
	rr.payload = rr.payload[:size]
	if _, err := io.ReadFull(rr.r, rr.payload); err != nil {
		return 0, ev, errTorn // short payload
	}
	if crc32.Checksum(rr.payload, castagnoli) != rd32(rr.hdr[4:8]) {
		return 0, ev, errTorn // bit rot or a torn overwrite
	}
	rd := wire.NewReader(rr.payload)
	index = rd.Uvarint()
	data := rd.Bytes()
	if rd.Err() != nil || rd.Remaining() != 0 {
		return 0, ev, errTorn
	}
	if len(data) == 0 || data[0] != journalBinaryTag {
		return 0, ev, errTorn
	}
	// The decoder copies what it keeps, so the payload buffer is free to be
	// overwritten by the next record.
	er := wire.NewReader(data[1:])
	if ev, err = cluster.DecodeEventBinary(er); err != nil || er.Remaining() != 0 {
		return 0, cluster.Event{}, errTorn
	}
	rr.good += int64(len(rr.hdr)) + int64(size)
	return index, ev, nil
}

// truncateAt cuts f at a record boundary and makes the cut durable.
func truncateAt(f *os.File, off int64) error {
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}

// readSnapshot loads dir's snap.log, whose records must be the contiguous
// event prefix 0..k-1. An index out of order is corruption. An unreadable
// record is a torn seal if — and only if — wal.log still supplies every
// event from that record onward: a seal truncates the wal only after its
// records are fsynced here, so a wal whose first index is at or below the
// damage holds everything the damaged region did. Then the snapshot is cut
// back to its last good boundary and recovery continues from the wal. Any
// other unreadable record fails loudly rather than truncating away events
// nothing can supply.
func readSnapshot(dir string) ([]cluster.Event, error) {
	path := filepath.Join(dir, snapName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	var events []cluster.Event
	rr := newRecordReader(f)
	for {
		offset := rr.good
		index, ev, err := rr.next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			first, ok := firstIndex(filepath.Join(dir, walName))
			if !ok || first > uint64(len(events)) {
				return nil, &CorruptionError{File: snapName, Offset: offset,
					Reason: fmt.Sprintf("unreadable record at event %d, which the wal does not cover", len(events))}
			}
			// Only this repair writes to the snapshot; an intact one recovers
			// from a read-only file.
			w, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err == nil {
				err = truncateAt(w, offset)
				w.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("durable: truncate torn seal: %w", err)
			}
			return events, nil
		}
		if index != uint64(len(events)) {
			return nil, &CorruptionError{File: snapName, Offset: offset, Reason: fmt.Sprintf("record index %d, want %d", index, len(events))}
		}
		events = append(events, ev)
	}
}

// firstIndex returns the event index of the first record in the file at
// path, or false if it has no intact first record.
func firstIndex(path string) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	index, _, err := newRecordReader(f).next()
	return index, err == nil
}

// recoverWal scans the wal tail after the snapshot prefix. Records whose
// index precedes len(events) are overlap from a crash between a seal's
// fsync and its wal truncation (reported, so Open finishes that seal):
// skipped after verifying they are not from the future. The first torn
// record truncates the file at the last good boundary and ends recovery — a
// torn tail yields a prefix, never an invention. A clean record whose index
// jumps past the expected next event is corruption (an append can tear, it
// cannot skip), reported as such. tail is the framed bytes of the records
// that extended events: what the next seal appends to the snapshot. It is
// kept only if something will seal it — sealing is on (keepTail), or overlap
// was seen and Open must finish that seal whatever the options say; overlap
// records precede every extending one, so that is known in time. With
// sealing off the wal is the whole history, not worth a second copy.
func recoverWal(path string, events []cluster.Event, keepTail bool) (_ []cluster.Event, tail []byte, overlap bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		return events, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	for {
		offset := rr.good
		index, ev, err := rr.next()
		if err == io.EOF {
			return events, tail, overlap, nil
		}
		if err != nil {
			if err := truncateAt(f, rr.good); err != nil {
				return nil, nil, false, fmt.Errorf("durable: truncate torn tail: %w", err)
			}
			return events, tail, overlap, nil
		}
		switch {
		case index < uint64(len(events)):
			// Overlap with the snapshot; the snapshot copy is authoritative.
			overlap = true
		case index == uint64(len(events)):
			events = append(events, ev)
			if keepTail || overlap {
				tail = append(append(tail, rr.hdr[:]...), rr.payload...)
			}
		default:
			return nil, nil, false, &CorruptionError{File: walName, Offset: offset,
				Reason: fmt.Sprintf("record index %d skips past %d (gap cannot come from a torn append)", index, len(events))}
		}
	}
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Errors are ignored: some filesystems refuse directory fsync, and
// the worst case is the pre-rename state — which recovery handles.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// removeGlob deletes files matching the pattern, ignoring errors.
func removeGlob(pattern string) {
	matches, _ := filepath.Glob(pattern)
	for _, m := range matches {
		os.Remove(m)
	}
}
