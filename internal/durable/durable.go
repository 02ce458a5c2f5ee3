// Package durable persists one cluster node's recorded event history to
// disk, turning the history a node replays at boot into a crash-surviving
// artifact: a served process can be kill -9'd and restarted from its data
// directory alone.
//
// The design is a write-ahead log cut into sealed segments, so every record
// is written exactly once:
//
//   - wal.log is append-only. Each record frames one event's record — the
//     bytes the node's history already holds, not a second encoding of the
//     event — behind a 4-byte length and a CRC-32C of the payload. The node
//     stages each do/send/receive record (Stage) in the shard's turn that
//     records it, and Commit writes everything staged with one write and
//     makes it durable with one fsync (or one GroupCommitter round). The
//     node commits at the points where a record could become visible
//     outside it (cluster.Config.Storage lists them): before a client's
//     response or its own new update leaves, and before a hello ack or a
//     join digest answer reports a count. So any event a peer holds an ack
//     for, or a client a response to, is durable — the crash-window
//     invariant, now across process death — and a crash loses at most
//     receives nobody was told of, which their senders still owe.
//   - A seal is a rename. Once a commit brings the wal to sealEvery new
//     records — every one of them already fsynced — it is renamed
//     seg-<index of its first new event>.log, the directory is fsynced, and
//     a fresh wal.log is created. No byte is copied and a sealed file is
//     never written again. A crash before the rename leaves a long wal the
//     next commit seals; a crash after it leaves no wal, and Open creates
//     one.
//   - Recovery (Open) reads an ordered file list — the segments sorted by
//     name, then the wal — under one rule per record: an index below the
//     count so far is skipped (a repeated record is a copy of one already
//     read), the next index is handed to the caller's replay, in a buffer
//     the next record reuses, a later one is corruption — an append can
//     tear, it cannot skip. Names only order the files; indices decide
//     contiguity.
//   - A record whose framing fails — short header, short payload, CRC
//     mismatch, an index or body that does not fill the payload — is a torn
//     append at the tail of wal.log: the file is cut back to the last good
//     record and recovery stops there, so the log is a prefix of what the
//     node recorded, never a fabrication. In a sealed file it is corruption
//     and fails recovery, unless the next file still supplies that event
//     index; then the sealed file is cut back to its last good record and
//     recovery continues from the next file. Silent truncation is therefore
//     bounded by one seal interval, and damage in the sealed prefix is loud.
//   - An intact record this build cannot read is neither: its framing holds,
//     but its body's tag names another journal format (the earlier one,
//     whose update payloads are in a layout this build's stores do not
//     decode, or a later one), or replay refuses it. Open refuses the
//     directory with a FormatError, wherever the record sits — as it does a
//     directory holding the snap.log of a build that sealed by copying.
//   - A refused Open writes nothing: each cut, a first open's meta.json and
//     the removal of a leftover temporary wait until replay has accepted
//     every record.
//
// Open is what cluster.JournalStorage.OpenJournal runs (Storage, in
// storage.go), so the restart path is the code the supervisor exercises.
//
// Contract:
//
//   - OWNS: the data directory — meta.json, wal.log, seg-*.log — their
//     record framing, fsync ordering and recovery rules, and the
//     group-commit coordinator shard logs share.
//   - MUST NOT: dial, listen or know a frame type; encode or decode an
//     event (it frames the records cluster hands it and hands them back,
//     checking only framing, contiguity and format tag); or repair damage by
//     guessing — a record it cannot read is torn or corrupt, never
//     reinterpreted.
//   - MUST NOT import: anything above internal/cluster (cmd/..., the
//     simulator, the stores).
package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/wire"
)

const (
	walName  = "wal.log"
	metaName = "meta.json"
	// segFormat names a sealed segment after the index of its first new
	// event, zero-padded so that name order is event order.
	segFormat = "seg-%020d.log"
	segGlob   = "seg-*.log"
	// snapName is the sealed prefix of a build that sealed by copying the
	// wal, in journal format 0x01: a directory holding one is refused.
	snapName = "snap.log"

	// sealEvery is how many new records the wal holds once a commit seals
	// it (a commit of several records can take it a little past).
	sealEvery = 1024

	// keepPending bounds the staging buffer a log keeps between commits:
	// several times what a node stages before it commits (a block of the
	// history, seglog.BlockSize), far below a record of maxRecord.
	keepPending = 256 << 10

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
// unreadable record in a sealed file that the next file does not cover, or
// an event-index gap between otherwise valid records (which a torn append
// cannot produce).
type CorruptionError struct {
	File   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("durable: %s corrupt at offset %d: %s", e.File, e.Offset, e.Reason)
}

// FormatError reports a data directory written by a build of another
// journal format: File holds, at Offset, an intact record — its length,
// CRC, index and body framing sound — that this build cannot read: one in
// format legacyJournalTag, whose update payloads no store of this build
// decodes, one in a format this build does not know, or one Open's replay
// refused, with Err, its error, as the cause. Open returns it having
// truncated and written nothing.
type FormatError struct {
	File   string
	Offset int64
	Err    error
}

// Error implements error.
func (e *FormatError) Error() string {
	why := fmt.Sprintf("of journal format 0x%02x, written by a build of protocol version 9 or earlier, or of a later build; "+
		"this build reads format 0x%02x only", legacyJournalTag, journalBinaryTag)
	if e.Err != nil {
		why = e.Err.Error()
	}
	return fmt.Sprintf("durable: %s holds a record this build cannot read at offset %d: %s; the directory is left as it is", e.File, e.Offset, why)
}

// Unwrap returns the replay's error, if replay refused the record.
func (e *FormatError) Unwrap() error { return e.Err }

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
	// NoSync skips the per-append fsync (tests that only exercise framing
	// and recovery logic, not crash safety, run much faster without it).
	NoSync bool
	// Group, when non-nil, routes each commit's fsync through a shared
	// GroupCommitter so logs that commit concurrently (a sharded node's
	// per-shard journals) coalesce into one fsync round. Durability
	// semantics are unchanged — Commit still returns only after its records
	// are on disk. Ignored under NoSync.
	Group *GroupCommitter

	// sealEvery, when positive, overrides the constant of that name: tests
	// in this package seal logs a few records long.
	sealEvery int
}

// Log is one node's open durable history, a cluster.Journal. Stage and
// Commit are called in the shard's turns (one at a time), but Close can
// arrive from a different shutdown goroutine, so the mutex serializes them.
//
// The log holds no copy of the history, in memory or on disk: two counts,
// the open wal, and the records staged since the last commit, framed.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	wal      *os.File
	count    int    // events in the log, sealed and unsealed
	walCount int    // of those, how many the wal added
	pending  []byte // staged records, framed, for the next commit to write
	staged   int    // how many records pending holds
	closed   bool

	// walWrites and syncs count the wal writes and the fsyncs (direct or
	// through the group) commits made: what a test holds to one of each
	// per commit.
	walWrites, syncs int
}

var _ cluster.Journal = (*Log)(nil)

// Open opens (or initializes) the data directory and recovers the records it
// holds: before it returns, it hands replay each one — the bytes Stage was
// handed, valid for the call only — in index order. An error from replay
// refuses the directory (FormatError). A refused Open writes nothing: the
// cuts recovery makes and a first open's meta.json wait until every record
// has been accepted. The caller must Close the log after the node has shut
// down.
func Open(dir string, meta Meta, opts Options, replay func(rec []byte) error) (*Log, error) {
	if opts.sealEvery <= 0 {
		opts.sealEvery = sealEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	newMeta, err := checkMeta(dir, meta)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err == nil {
		return nil, &FormatError{File: snapName}
	}

	rc := recovery{dir: dir, replay: replay, rr: newRecordReader(nil, recoverBuffer), cuts: map[string]int64{}}
	files := logFiles(dir)
	for i, name := range files {
		next := "" // no file: covers nothing
		if i+1 < len(files) {
			next = filepath.Join(dir, files[i+1])
		}
		if err := rc.file(name, next); err != nil {
			return nil, err
		}
	}
	for name, off := range rc.cuts {
		if err := truncateAt(filepath.Join(dir, name), off); err != nil {
			return nil, fmt.Errorf("durable: truncate torn %s: %w", name, err)
		}
	}
	if newMeta {
		if err := writeMeta(dir, meta); err != nil {
			return nil, err
		}
	}
	// A leftover meta.json.tmp is a rename that never happened; what it was
	// to replace is still authoritative.
	removeGlob(filepath.Join(dir, "*.tmp"))
	l := &Log{dir: dir, opts: opts, count: rc.count, walCount: rc.walCount}
	if err := l.openWal(); err != nil {
		return nil, err
	}
	return l, nil
}

// openWal opens wal.log for appending, creating it — and making the new
// directory entry durable — when a first boot or a seal left none.
func (l *Log) openWal() error {
	path := filepath.Join(l.dir, walName)
	wal, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if os.IsNotExist(err) {
		if wal, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil && !l.opts.NoSync {
			syncDir(l.dir)
		}
	}
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	l.wal = wal
	return nil
}

// Stage frames rec — one event's record, as the node's history holds it — as
// the log's next record, behind what is already staged, for the next Commit
// to write.
// It copies rec and writes nothing: a staged record is not durable, and a
// crash or a Close before the Commit drops it.
func (l *Log) Stage(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: stage to closed log")
	}
	var err error
	if l.pending, err = appendRecord(l.pending, uint64(l.count+l.staged), rec); err != nil {
		return err
	}
	l.staged++
	return nil
}

// Commit makes every staged record durable: one wal write, one fsync (or
// one GroupCommitter round), and the seal when the wal is due one. With
// nothing staged it does nothing. It must complete before any staged event's
// effects are acknowledged to any peer or client; an error means they may
// not be durable, and the node fail-stops on it.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: commit to closed log")
	}
	if l.staged == 0 {
		return nil
	}
	l.walWrites++
	if _, err := l.wal.Write(l.pending); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if !l.opts.NoSync {
		l.syncs++
		if g := l.opts.Group; g != nil {
			// Group commit: the round's fsync starts after the write above
			// (Commit guarantees it), so acked ⇒ on-disk holds exactly as
			// with the direct Sync. l.mu stays held — each log has its own,
			// so other shards' commits proceed and pile into the round.
			if err := g.Commit(l.wal); err != nil {
				return fmt.Errorf("durable: wal group sync: %w", err)
			}
		} else if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("durable: wal sync: %w", err)
		}
	}
	l.count += l.staged
	l.walCount += l.staged
	l.pending, l.staged = l.pending[:0], 0
	if cap(l.pending) > keepPending {
		l.pending = nil // rare (a huge record), and too large a buffer to keep
	}
	if l.walCount >= l.opts.sealEvery {
		return l.seal()
	}
	return nil
}

// testCrashSeal, when non-nil, runs inside seal between the rename and the
// creation of the new wal. Tests install a panicking hook to simulate a
// kill -9 in exactly that window.
var testCrashSeal func()

// seal turns the wal into a sealed segment: rename it after the index of
// its first new event, fsync the directory, open a fresh wal. Every record
// in it was fsynced by the commit that wrote it, so nothing is copied and a
// crash at any point is safe: before the rename the directory holds a long
// wal, after it a sealed segment and — until openWal — no wal at all, and
// recovery reads both the same way. Segment names are unique by
// construction, so a file already holding this one's name is damage: the
// seal refuses it rather than let the rename replace it.
func (l *Log) seal() error {
	seg := fmt.Sprintf(segFormat, l.count-l.walCount)
	dst := filepath.Join(l.dir, seg)
	if _, err := os.Lstat(dst); err == nil {
		return fmt.Errorf("durable: seal: %s already exists; refusing to rename the wal over it", seg)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("durable: seal: %w", err)
	}
	if err := os.Rename(filepath.Join(l.dir, walName), dst); err != nil {
		return fmt.Errorf("durable: seal: %w", err)
	}
	if !l.opts.NoSync {
		syncDir(l.dir)
	}
	l.wal.Close() // fsynced record by record; a close error carries no news
	l.walCount = 0
	if testCrashSeal != nil {
		testCrashSeal()
	}
	return l.openWal()
}

// Close syncs and closes the wal, dropping whatever is staged: the node
// commits in each shard's last turn, so only a fail-stopping node leaves
// records staged, and none of them was promised to anyone. Call after the
// node has shut down (nothing is staged or committed once the shard's last
// turn has ended).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.wal.Sync()
	l.wal.Close()
	if err != nil {
		return fmt.Errorf("durable: close sync: %w", err)
	}
	return nil
}

// checkMeta verifies the directory's identity file, and reports whether it
// has none yet, for writeMeta to write once recovery has accepted the
// directory.
func checkMeta(dir string, meta Meta) (missing bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if os.IsNotExist(err) {
		return true, nil
	} else if err != nil {
		return false, fmt.Errorf("durable: %w", err)
	}
	var have Meta
	if err := json.Unmarshal(data, &have); err != nil {
		return false, &CorruptionError{File: metaName, Reason: err.Error()}
	}
	if meta = meta.canon(); have.canon() != meta {
		return false, fmt.Errorf("%w: directory holds r%d/%d/%s (shard %d/%d), node is r%d/%d/%s (shard %d/%d)",
			ErrMetaMismatch, have.Node, have.N, have.Store, have.Shard, have.Shards,
			meta.Node, meta.N, meta.Store, meta.Shard, meta.Shards)
	}
	return false, nil
}

// writeMeta writes the directory's identity file, through a rename.
func writeMeta(dir string, meta Meta) error {
	data, err := json.Marshal(meta.canon())
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	path := filepath.Join(dir, metaName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	syncDir(dir)
	return nil
}

// journalBinaryTag is the first body byte of every record: it names the
// body's format, cluster's binary event encoding, and is the one byte a
// future format would change. 0x02 holds the causal store's updates without
// the fields their type implies; legacyJournalTag, 0x01, held them with every
// field. An intact record in any format but this one is refused
// (FormatError).
const (
	journalBinaryTag = 0x02
	legacyJournalTag = 0x01
)

// appendRecord appends one framed record to buf: length | crc32c | payload,
// where the payload is (uvarint index, length-prefixed body) and the body is
// the tag byte followed by rec, an event in cluster's binary encoding. On
// error buf is returned as it was.
func appendRecord(buf []byte, index uint64, rec []byte) ([]byte, error) {
	start := len(buf)
	// Reserve the 8-byte header; the payload is framed in place behind it.
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, index)
	buf = binary.AppendUvarint(buf, uint64(len(rec)+1))
	buf = append(buf, journalBinaryTag)
	buf = append(buf, rec...)
	if size := len(buf) - start - 8; size > maxRecord {
		return buf[:start], fmt.Errorf("durable: record of %d bytes exceeds limit %d", size, maxRecord)
	}
	putFrameHeader(buf[start:])
	return buf, nil
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

// errTorn marks every way a record's framing can fail: short header, short
// payload, implausible length, CRC mismatch, an index or body that does not
// fill the payload. errFormat marks an intact record whose body tag is not
// journalBinaryTag.
var (
	errTorn   = errors.New("durable: torn record")
	errFormat = errors.New("durable: record of another journal format")
)

// recordReader reads framed records through one buffer, so recovery costs
// one read syscall per buffer-full rather than two per record, and one
// payload buffer grown to the largest record rather than one per record.
// Recovery reads every file of a directory through one (reset), so neither
// buffer is paid per file.
type recordReader struct {
	r       *bufio.Reader
	good    int64   // offset just past the last intact record
	hdr     [8]byte // scratch for a record's header and
	payload []byte  // payload, grown to the largest record read
}

// recoverBuffer is the read-ahead buffer recovery reads a directory through.
const recoverBuffer = 64 << 10

func newRecordReader(f io.Reader, size int) *recordReader {
	return &recordReader{r: bufio.NewReaderSize(f, size)}
}

// reset points rr at the start of f, keeping both of its buffers.
func (rr *recordReader) reset(f io.Reader) {
	rr.r.Reset(f)
	rr.good = 0
}

// next reads one record: its index, and rec, the event's record behind the
// body's tag, a slice of the payload buffer valid until the next call. It
// returns io.EOF at a clean record boundary, errTorn for damage and
// errFormat for an intact record of another journal format; in every case
// good is the last boundary before the record.
func (rr *recordReader) next() (index uint64, rec []byte, err error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, errTorn // short header
	}
	size := rd32(rr.hdr[0:4])
	if size > maxRecord {
		return 0, nil, errTorn // implausible length (corrupted prefix)
	}
	if cap(rr.payload) < int(size) {
		rr.payload = make([]byte, size)
	}
	rr.payload = rr.payload[:size]
	if _, err := io.ReadFull(rr.r, rr.payload); err != nil {
		return 0, nil, errTorn // short payload
	}
	if crc32.Checksum(rr.payload, castagnoli) != rd32(rr.hdr[4:8]) {
		return 0, nil, errTorn // bit rot or a torn overwrite
	}
	rd := wire.NewReader(rr.payload)
	index = rd.Uvarint()
	data := rd.Bytes()
	if rd.Err() != nil || rd.Remaining() != 0 {
		return 0, nil, errTorn
	}
	if len(data) == 0 || data[0] != journalBinaryTag {
		return 0, nil, errFormat
	}
	rr.good += int64(len(rr.hdr)) + int64(size)
	return index, data[1:], nil
}

// truncateAt cuts the file at path back to a record boundary and makes the
// cut durable. Recovery writes to a file it reads only here.
func truncateAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return err
	}
	return f.Sync()
}

// logFiles lists dir's record files in event order: the sealed segments by
// name, then the wal.
func logFiles(dir string) []string {
	var files []string
	segs, _ := filepath.Glob(filepath.Join(dir, segGlob))
	sort.Strings(segs)
	for _, seg := range segs {
		files = append(files, filepath.Base(seg))
	}
	if _, err := os.Stat(filepath.Join(dir, walName)); err == nil {
		files = append(files, walName)
	}
	return files
}

// recovery is one Open's pass over a directory's record files: the event
// sequence 0..count-1 it has handed replay so far, and the cuts it owes the
// files — the record boundary each is to be truncated back to — which Open
// makes only once the whole directory has been accepted.
type recovery struct {
	dir      string
	replay   func(rec []byte) error
	rr       *recordReader
	count    int // events handed to replay
	walCount int // of those, how many the wal supplied
	cuts     map[string]int64
}

// file replays the records of the directory's file name; next is the path
// of the file after it. Per record: an index below the count so far repeats
// a record already read and is skipped, the next index is handed to replay,
// and one past it is corruption — an append can tear, it cannot skip. An
// intact record of another format, or one replay refuses, fails recovery
// with a FormatError.
//
// A record that cannot be read ends the file. In wal.log it is a torn
// append: the file is owed a cut at the last good boundary and recovery
// ends with the prefix before it, never an invention. In a sealed file it is
// repaired if — and only if — the next file still supplies every event from
// that record onward, so that nothing the damaged region held is lost: a
// next file whose first index is at or below the damage. Then the sealed
// file is owed a cut at its last good boundary and recovery continues from
// the next file. Any other unreadable sealed record fails loudly rather than
// truncating away events nothing can supply.
func (rc *recovery) file(name, next string) error {
	f, err := os.Open(filepath.Join(rc.dir, name))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	rc.rr.reset(f)
	for {
		offset := rc.rr.good
		index, rec, err := rc.rr.next()
		if err == io.EOF {
			return nil
		}
		if err == errFormat {
			return &FormatError{File: name, Offset: offset}
		}
		if err != nil {
			if name != walName {
				if first, ok := firstIndex(next); !ok || first > uint64(rc.count) {
					return &CorruptionError{File: name, Offset: offset,
						Reason: fmt.Sprintf("unreadable record at event %d, which the next file does not cover", rc.count)}
				}
			}
			rc.cuts[name] = offset
			return nil
		}
		switch {
		case index < uint64(rc.count):
			// The sealed copy is authoritative.
		case index == uint64(rc.count):
			if err := rc.replay(rec); err != nil {
				return &FormatError{File: name, Offset: offset, Err: err}
			}
			rc.count++
			if name == walName {
				rc.walCount++
			}
		default:
			return &CorruptionError{File: name, Offset: offset,
				Reason: fmt.Sprintf("record index %d skips past %d (gap cannot come from a torn append)", index, rc.count)}
		}
	}
}

// firstIndex returns the event index of the first record in the file at
// path, or false if it has no intact first record. It reads that record
// alone: a header-sized buffer (bufio's smallest, 16 bytes), then the
// payload straight into its own.
func firstIndex(path string) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	index, _, err := newRecordReader(f, 16).next()
	return index, err == nil
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
