package durable

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

// The log maintains an incremental Merkle forest over the journaled
// broadcast history (internal/membership), hashing each ActSend/ActReceive
// in the same Append that makes it durable — so the tree a joiner's
// anti-entropy digests against always describes exactly the on-disk log.
//
// The forest's whole state is the per-origin update-hash arrays, so it
// checkpoints alongside the snapshot, and like the snapshot it is
// append-only: each seal appends one frame to tree.ckpt holding, per
// origin, the hashes added since the previous frame and the root over all
// of them so far. Open replays the frames to seed the forest and rehashes
// only what lies beyond them. The checkpoint is advisory — missing, ahead
// of the recovered events, or failing verification, it is discarded and
// the forest rebuilds from the recovered payloads, which recovery holds in
// memory anyway; the next seal then starts the file over with one frame
// covering the whole forest.
//
// The checkpoint is also always potentially STALE: a seal extends it after
// the snapshot, so a crash in between leaves it a frame short. Staleness
// alone is benign (a shorter honest prefix seeds fine), but it means the
// file's contents can describe a history other than the one on disk — most
// plainly after a torn-tail truncation made the node re-mint seqs with
// different payloads. Verification therefore never trusts the hashes on CRC
// alone: every frame's stored root must reproduce from the hashes up to it
// (catching any internal inconsistency the CRC happens to pass), and the
// stored hashes must match the recovered payloads over the whole last leaf
// (catching a divergent recent history, where a last-hash-only spot check
// could be fooled by a coincidentally-matching final event).

const treeName = "tree.ckpt"

// treeCkptV3 opens every frame's payload. The file is a sequence of frames,
// each length | crc32c | payload like a journal record, with payload
//
//	uvarint version (3), uvarint origins,
//	per origin: uvarint start, uvarint added, 32-byte root, added × 32-byte hashes
//
// where start is how many of the origin's hashes earlier frames hold and
// root is its Merkle root over start+added. Files in the earlier whole-file
// layouts do not parse as a frame and are discarded like any other damage:
// the cost is one full rebuild on the first open after an upgrade.
const treeCkptV3 = 3

// hashEvent folds one journaled event into the forest; non-broadcast
// events (ActDo) hash nothing. Gap errors mean the journal itself skipped
// a broadcast seq, which recovery's index checks should make impossible.
func hashEvent(tree *membership.Forest, ev cluster.Event) error {
	if ev.Kind != model.ActSend && ev.Kind != model.ActReceive {
		return nil
	}
	return tree.Append(int(ev.Origin), ev.Seq, ev.Payload)
}

// buildTree reconstructs the forest for a recovered event sequence, seeded
// where possible by the checkpoint. It also returns, per origin, how many
// hashes the checkpoint file holds once buildTree is done with it: the
// seeded counts, or zeros after a discard.
func buildTree(dir string, n int, events []cluster.Event) (*membership.Forest, []uint64, error) {
	// Per-origin payloads in seq order, straight from the recovered events.
	payloads := make([][][]byte, n)
	for _, ev := range events {
		if ev.Kind != model.ActSend && ev.Kind != model.ActReceive {
			continue
		}
		o := int(ev.Origin)
		if o < 0 || o >= n {
			return nil, nil, &CorruptionError{File: walName, Reason: fmt.Sprintf("broadcast event from origin %d in a %d-replica log", o, n)}
		}
		if ev.Seq != uint64(len(payloads[o]))+1 {
			return nil, nil, &CorruptionError{File: walName, Reason: fmt.Sprintf("origin %d broadcast seq %d, want %d", o, ev.Seq, len(payloads[o])+1)}
		}
		payloads[o] = append(payloads[o], ev.Payload)
	}

	path := filepath.Join(dir, treeName)
	ckpt, _ := os.ReadFile(path) // missing or unreadable: nothing to seed from
	tree, keep := replayTreeCkpt(ckpt, n)
	if tree != nil && !ckptMatchesPayloads(tree, payloads) {
		tree, keep = nil, 0
	}
	if tree == nil {
		tree = membership.NewForest(n)
	}
	// Cut the file back to the frames that seeded the forest, so the next
	// seal's frame chains onto them.
	if keep < len(ckpt) {
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, nil, fmt.Errorf("durable: tree checkpoint: %w", err)
		}
	}
	ckptCount := make([]uint64, n)
	for o := 0; o < n; o++ {
		ckptCount[o] = tree.Count(o)
		for i := int(ckptCount[o]); i < len(payloads[o]); i++ {
			if err := tree.Append(o, uint64(i)+1, payloads[o][i]); err != nil {
				return nil, nil, err
			}
		}
	}
	return tree, ckptCount, nil
}

// replayTreeCkpt replays the checkpoint file's frames into a fresh forest.
// It reads frames until the first damaged one — a torn append — and returns
// the forest with the offset the intact frames end at. A frame that is
// intact but wrong discards everything (nil forest): one from another
// layout or origin population, one that does not start where its
// predecessors ended, or one whose stored root does not reproduce from the
// hashes up to it. The CRC already rejects bit rot, so what the root check
// really catches is a checkpoint whose parts disagree — spliced,
// truncated-and-extended, or written by a build with different hashing
// rules — without rehashing any payload.
func replayTreeCkpt(buf []byte, n int) (*membership.Forest, int) {
	tree := membership.NewForest(n)
	off := 0
	for len(buf)-off >= 8 {
		size := int(rd32(buf[off : off+4]))
		if size > len(buf)-off-8 {
			break
		}
		payload := buf[off+8 : off+8+size]
		if crc32.Checksum(payload, castagnoli) != rd32(buf[off+4:off+8]) {
			break
		}
		r := wire.NewReader(payload)
		if r.Uvarint() != treeCkptV3 || r.Uvarint() != uint64(n) {
			return nil, 0
		}
		for o := 0; o < n; o++ {
			start, added := r.Uvarint(), r.Uvarint()
			root := r.Fixed(32)
			if root == nil || start != tree.Count(o) || added > uint64(r.Remaining()/32) {
				return nil, 0
			}
			for i := uint64(0); i < added; i++ {
				if tree.AppendHash(o, membership.Hash(r.Fixed(32))) != nil {
					return nil, 0
				}
			}
			if tree.Root(o) != membership.Hash(root) {
				return nil, 0
			}
		}
		if r.Err() != nil || r.Remaining() != 0 {
			return nil, 0
		}
		off += 8 + size
	}
	return tree, off
}

// ckptMatchesPayloads decides whether a forest replayed from the checkpoint
// may seed the log's: for every origin it must not run ahead of the
// recovered events, and its hashes must match the recovered payloads over
// the entire last leaf (up to LeafSpan trailing updates), not just the final
// one. A stale checkpoint from before a torn-tail truncation can describe
// re-minted recent history; checking one trailing event lets any divergence
// older than it through, and a forest seeded that way serves digests that
// "prove" divergence to every honest joiner.
func ckptMatchesPayloads(tree *membership.Forest, payloads [][][]byte) bool {
	for o := range payloads {
		k := tree.Count(o)
		if k > uint64(len(payloads[o])) {
			return false
		}
		lo := uint64(0)
		if k > membership.LeafSpan {
			lo = k - membership.LeafSpan
		}
		for i := lo; i < k; i++ {
			if tree.UpdateHash(o, i) != membership.HashUpdate(o, i+1, payloads[o][i]) {
				return false
			}
		}
	}
	return true
}

// appendTreeCkpt appends one frame holding every update hash the forest has
// gained since the last one. The frame is built in a pooled writer and is as
// long as the sealed tail, not the history.
func (l *Log) appendTreeCkpt() error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Raw([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // length and CRC slots
	w.Uvarint(treeCkptV3)
	w.Uvarint(uint64(l.tree.Origins()))
	grew := false
	for o, start := range l.ckptCount {
		count := l.tree.Count(o)
		grew = grew || count > start
		w.Uvarint(start)
		w.Uvarint(count - start)
		root := l.tree.Root(o)
		w.Raw(root[:])
		for i := start; i < count; i++ {
			h := l.tree.UpdateHash(o, i)
			w.Raw(h[:])
		}
	}
	if !grew {
		return nil
	}
	frame := w.Bytes()
	putFrameHeader(frame)
	if err := l.appendDurably(&l.ckpt, treeName, frame); err != nil {
		return fmt.Errorf("durable: tree checkpoint: %w", err)
	}
	for o := range l.ckptCount {
		l.ckptCount[o] = l.tree.Count(o)
	}
	return nil
}
