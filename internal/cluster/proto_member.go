package cluster

import (
	"fmt"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

// Membership and anti-entropy frame types, continuing the numbering in
// proto.go. A join conversation is one connection; after the handshake the
// joiner catches up one shard at a time, in shard order, and every frame
// that addresses a seq domain names its shard, as tBatch does:
//
//	joiner → tJoin      {from, epoch, addr, version, shards}
//	donor  → tJoinAck   {version, shards, view}
//	per shard:
//	joiner → tDigest    {shard, per-origin count+root}
//	donor  → tDigestResp{shard, per-origin count+root+prefixRoot(joiner count)}
//	donor  → tRangeResp {shard, origin, (seq, lamport, payload)...}  (chunked:
//	                    every range the digests show the joiner lacks)
//
// Gossip frames (tGossip/tGossipAck) are a single request/response exchange
// on a transient connection.
const (
	tJoin       = 14 // {from, epoch, addr, version, shards}
	tJoinAck    = 15 // {version, shards, members...}
	tGossip     = 16 // {from, members...}
	tGossipAck  = 17 // {members...}
	tDigest     = 18 // {shard, count, (origin, count, root)...}
	tDigestResp = 19 // {shard, count, (origin, count, root, prefixRoot)...}
	// 20 and 21 carried the Merkle tree walk of versions before 8, and 22
	// the range request of versions before 11; retired.
	tRangeResp = 23 // {shard, origin, count, (seq, lamport, payload)...}
	// 24 is tCompressed, the compression envelope — see compress.go.
)

// joinReq carries a decoded tJoin. Like a hello's, the version closes the
// part every version shares: Shards is read only at protoVersion.
type joinReq struct {
	From    model.ReplicaID
	Epoch   uint64
	Addr    string
	Version uint64
	Shards  uint64
}

func appendJoin(w *wire.Writer, j joinReq) {
	w.Uvarint(tJoin)
	w.Uvarint(uint64(j.From))
	w.Uvarint(j.Epoch)
	w.String(j.Addr)
	w.Uvarint(protoVersion)
	w.Uvarint(j.Shards)
}

func decodeJoin(r *wire.Reader) (joinReq, error) {
	j := joinReq{
		From:    model.ReplicaID(r.Uvarint()),
		Epoch:   r.Uvarint(),
		Addr:    r.String(),
		Version: r.Uvarint(),
	}
	if r.Err() != nil || j.Version != protoVersion {
		return j, r.Err()
	}
	j.Shards = r.Uvarint()
	return j, r.End()
}

// appendMembers encodes a view snapshot: {count, (id, epoch, left, addr)...}.
func appendMembers(w *wire.Writer, ms []membership.Member) {
	w.Uvarint(uint64(len(ms)))
	for _, m := range ms {
		w.Uvarint(uint64(m.ID))
		w.Uvarint(m.Epoch)
		l := uint64(0)
		if m.Left {
			l = 1
		}
		w.Uvarint(l)
		w.String(m.Addr)
	}
}

// decodeMembers decodes a view snapshot, rejecting member IDs outside the
// n-replica population (a hostile or corrupt frame must not grow the
// cluster) and implausible counts. The snapshot is the last field of every
// frame that carries one, so the decode ends with it.
func decodeMembers(r *wire.Reader, n int) ([]membership.Member, error) {
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each member costs at least four bytes (id, epoch, left, addr length).
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("cluster: implausible member count %d", count)
	}
	ms := make([]membership.Member, 0, count)
	for i := uint64(0); i < count; i++ {
		m := membership.Member{ID: int(r.Uvarint())}
		m.Epoch = r.Uvarint()
		m.Left = r.Uvarint() == 1
		m.Addr = r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m.ID < 0 || m.ID >= n {
			return nil, fmt.Errorf("cluster: member r%d outside cluster of %d", m.ID, n)
		}
		ms = append(ms, m)
	}
	return ms, r.End()
}

// appendJoinAck answers a join: the donor's version and shard count, then its
// view.
func appendJoinAck(w *wire.Writer, shards int, ms []membership.Member) {
	w.Uvarint(tJoinAck)
	w.Uvarint(protoVersion)
	w.Uvarint(uint64(shards))
	appendMembers(w, ms)
}

// decodeJoinAck decodes a tJoinAck; past a foreign version nothing is read.
func decodeJoinAck(r *wire.Reader, n int) (version, shards uint64, ms []membership.Member, err error) {
	version = r.Uvarint()
	if r.Err() != nil || version != protoVersion {
		return version, 0, nil, r.Err()
	}
	shards = r.Uvarint()
	ms, err = decodeMembers(r, n)
	return version, shards, ms, err
}

func appendGossip(w *wire.Writer, from model.ReplicaID, ms []membership.Member) {
	w.Uvarint(tGossip)
	w.Uvarint(uint64(from))
	appendMembers(w, ms)
}

func decodeGossip(r *wire.Reader, n int) (model.ReplicaID, []membership.Member, error) {
	from := model.ReplicaID(r.Uvarint())
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	ms, err := decodeMembers(r, n)
	return from, ms, err
}

func appendGossipAck(w *wire.Writer, ms []membership.Member) {
	w.Uvarint(tGossipAck)
	appendMembers(w, ms)
}

// originDigest summarizes one origin's history: how many updates and the
// chain value over all of them. In a tDigestResp the donor adds its chain
// value over the requester's own count (PrefixRoot), which is what proves
// the shared prefix matches before any range is pulled.
type originDigest struct {
	Origin     model.ReplicaID
	Count      uint64
	Root       membership.Hash
	PrefixRoot membership.Hash // tDigestResp only
}

// appendDigest encodes one shard's tDigest or tDigestResp frame (the
// response layout carries the extra prefix root per origin).
func appendDigest(w *wire.Writer, typ uint64, shard int, ds []originDigest) {
	w.Uvarint(typ)
	w.Uvarint(uint64(shard))
	w.Uvarint(uint64(len(ds)))
	for _, d := range ds {
		w.Uvarint(uint64(d.Origin))
		w.Uvarint(d.Count)
		w.Raw(d.Root[:])
		if typ == tDigestResp {
			w.Raw(d.PrefixRoot[:])
		}
	}
}

// readHash reads a fixed 32-byte hash.
func readHash(r *wire.Reader) (membership.Hash, bool) {
	var h membership.Hash
	b := r.Fixed(len(h))
	if b == nil {
		return h, false
	}
	copy(h[:], b)
	return h, true
}

// decodeDigest decodes a tDigest or tDigestResp body (withPrefix must
// match the encoder's frame type).
func decodeDigest(r *wire.Reader, withPrefix bool) (shard uint64, _ []originDigest, _ error) {
	shard = r.Uvarint()
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	entry := 34 // origin + count varints + one 32-byte hash, minimum
	if withPrefix {
		entry += 32
	}
	if count > uint64(r.Remaining()/entry)+1 {
		return 0, nil, fmt.Errorf("cluster: implausible digest count %d", count)
	}
	ds := make([]originDigest, 0, count)
	for i := uint64(0); i < count; i++ {
		d := originDigest{Origin: model.ReplicaID(r.Uvarint()), Count: r.Uvarint()}
		var ok bool
		if d.Root, ok = readHash(r); !ok {
			return 0, nil, wire.ErrTruncated
		}
		if withPrefix {
			if d.PrefixRoot, ok = readHash(r); !ok {
				return 0, nil, wire.ErrTruncated
			}
		}
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		ds = append(ds, d)
	}
	return shard, ds, r.End()
}
