package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/gen"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

// This file is the node half of the dynamic-membership subsystem: joining
// through a seed (tJoin + anti-entropy catch-up: per shard, one digest round
// proving the joiner's prefix by a hash chain, then one stream of what it
// lacks), leaving, seeded gossip rounds that converge the membership view,
// and reconciling the replication links against that view. The pure state —
// the view's epoch rules and the hash-chain forest — lives in
// internal/membership; this file only moves it over connections.
//
// A node is "static" until membership comes into play (Config.Join, a
// Leave call, a join it served, or a tGossip frame heard); static clusters
// pay nothing for any of this.

// errJoinRefused marks permanent join failures — divergent or missing
// history, or a seed speaking another protocol version or splitting the
// keyspace into another number of shards — that retrying a different seed
// cannot fix. Everything else (connection errors, timeouts) is transient and
// retried.
var errJoinRefused = errors.New("cluster: join refused")

// Membership snapshots this node's membership view, sorted by replica ID.
func (n *Node) Membership() []membership.Member {
	return n.view.Members()
}

// Leave marks this node as departed at its current epoch and tells every
// alive member directly (gossip spreads it to anyone unreachable right
// now). The node keeps serving until Closed. Peers drop their replication
// links to a left member, acked or not, which is safe because a rejoin
// catches up via anti-entropy instead of retransmission.
func (n *Node) Leave() error {
	n.view.Merge(membership.Member{ID: int(n.cfg.ID), Addr: n.Addr(), Epoch: n.epoch.Load(), Left: true})
	n.markDynamic()
	for _, m := range n.view.Alive() {
		if m.ID == int(n.cfg.ID) || m.Addr == "" {
			continue
		}
		n.exchangeGossip(m.ID, m.Addr)
	}
	return nil
}

// markDynamic flips the node into dynamic-membership mode and starts the
// gossip loop (once) — under peerMu and behind a closed-check, as connect
// starts senders, because Leave runs on its caller's goroutine: the loop
// joined the WaitGroup before Close waits, or never runs.
func (n *Node) markDynamic() {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if n.dynamic.Swap(true) {
		return
	}
	select {
	case <-n.done:
		return
	default:
	}
	n.wg.Add(1)
	go n.gossipLoop()
}

// gossipLoop runs seeded gossip rounds: every interval (with deterministic
// per-node jitter), exchange views with one random alive member. The rng
// is split from (Seed, ID) like the per-peer jitter streams, so -seed
// reproduces gossip target order.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(gen.SplitSeed(gen.SplitSeed(n.cfg.Seed, int(n.cfg.ID)), -1)))
	for {
		d := gossipInterval + time.Duration(rng.Int63n(int64(gossipInterval)/2+1))
		t := time.NewTimer(d)
		select {
		case <-n.done:
			t.Stop()
			return
		case <-t.C:
		}
		n.gossipOnce(rng)
	}
}

func (n *Node) gossipOnce(rng *rand.Rand) {
	var cands []membership.Member
	for _, m := range n.view.Alive() {
		if m.ID != int(n.cfg.ID) && m.Addr != "" {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		return
	}
	m := cands[rng.Intn(len(cands))]
	n.exchangeGossip(m.ID, m.Addr)
	n.ensureLinks()
}

// exchangeGossip runs one transient gossip round trip with a member:
// push our view, pull theirs, merge. Best-effort.
func (n *Node) exchangeGossip(id int, addr string) bool {
	conn, err := n.cfg.Transport.Dial(n.cfg.ID, model.ReplicaID(id), addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	if !n.sendFrame(conn, func(w *wire.Writer) { appendGossip(w, n.cfg.ID, n.view.Members()) }) {
		return false
	}
	typ, r, err := readTyped(conn, wire.NewFrameReader(conn), writeTimeout)
	if err != nil || typ != tGossipAck {
		return false
	}
	ms, err := decodeMembers(r, n.cfg.N)
	if err != nil {
		return false
	}
	n.view.MergeAll(ms)
	return true
}

// serveGossip answers one inbound gossip exchange (transient connection):
// merge the sender's view, reply with ours, reconcile links. The reply
// travels the link this → sender, so a cut there loses it, and a delay may
// still hold it when the write returns: the connection stays open until the
// dialer, having read the reply or given up on it, hangs up.
func (n *Node) serveGossip(conn net.Conn, ms []membership.Member, fr *wire.FrameReader) {
	n.view.MergeAll(ms)
	n.markDynamic()
	replied := n.sendFrame(conn, func(w *wire.Writer) { appendGossipAck(w, n.view.Members()) })
	n.ensureLinks()
	if replied {
		readTyped(conn, fr, writeTimeout)
	}
}

// ensureLinks reconciles the replication links against the membership
// view: connect to alive members we have no link to (owing them the whole
// log, less what their hello-ack watermark says they hold), drop links to
// members that left. Only a dynamic node reconciles — static clusters manage
// links explicitly via Connect.
func (n *Node) ensureLinks() {
	if !n.dynamic.Load() {
		return
	}
	missing := make(map[model.ReplicaID]string)
	var drop []model.ReplicaID
	n.peerMu.Lock()
	for _, m := range n.view.Members() {
		if m.ID == int(n.cfg.ID) || m.ID < 0 || m.ID >= n.cfg.N {
			continue
		}
		id := model.ReplicaID(m.ID)
		_, linked := n.peers[id]
		switch {
		case m.Left && linked:
			drop = append(drop, id)
		case !m.Left && !linked && m.Addr != "":
			missing[id] = m.Addr
		}
	}
	n.peerMu.Unlock()
	for _, id := range drop {
		n.disconnectPeer(id)
	}
	if len(missing) > 0 {
		n.connect(missing, true)
	}
}

// disconnectPeer tears down the replication link to a departed member and
// forgets how far it had acked (a rejoin recovers via anti-entropy, and its
// new link's hello ack says where to resume).
func (n *Node) disconnectPeer(id model.ReplicaID) {
	n.peerMu.Lock()
	p := n.peers[id]
	delete(n.peers, id)
	n.publishPeers()
	n.peerMu.Unlock()
	if p != nil {
		p.close()
	}
}

// ---------------------------------------------------------------------------
// Joiner side

// join admits this node into a live cluster through the Config.Join seeds:
// announce via tJoin, adopt the seed's view, catch up on missing history
// via anti-entropy, then announce the new incarnation and link up.
// Blocks (retrying seeds with backoff) until one admits us, the node is
// closed, or a seed permanently refuses.
func (n *Node) join() error {
	type seed struct {
		id   model.ReplicaID
		addr string
	}
	var seeds []seed
	for id, addr := range n.cfg.Join {
		if id == n.cfg.ID || addr == "" {
			continue
		}
		if int(id) < 0 || int(id) >= n.cfg.N {
			return fmt.Errorf("cluster: join seed r%d outside cluster of %d", id, n.cfg.N)
		}
		seeds = append(seeds, seed{id, addr})
	}
	if len(seeds) == 0 {
		return errors.New("cluster: Config.Join lists no usable seed")
	}
	// Deterministic seed order (map iteration is not).
	for i := 1; i < len(seeds); i++ {
		for j := i; j > 0 && seeds[j].id < seeds[j-1].id; j-- {
			seeds[j], seeds[j-1] = seeds[j-1], seeds[j]
		}
	}
	backoff := dialBackoffMin
	for {
		for _, s := range seeds {
			err := n.joinVia(s.id, s.addr)
			if err == nil {
				n.finishJoin()
				return nil
			}
			if errors.Is(err, errJoinRefused) {
				return err
			}
		}
		t := time.NewTimer(backoff)
		select {
		case <-n.done:
			t.Stop()
			return ErrClosed
		case <-t.C:
		}
		backoff = min(2*backoff, dialBackoffMax)
	}
}

// finishJoin registers the (possibly epoch-bumped) incarnation in our own
// view, announces it to every alive member — so they stop reporting
// quiescence until their links reach us — and connects to all of them.
func (n *Node) finishJoin() {
	n.view.Merge(membership.Member{ID: int(n.cfg.ID), Addr: n.Addr(), Epoch: n.epoch.Load()})
	n.markDynamic()
	for _, m := range n.view.Alive() {
		if m.ID == int(n.cfg.ID) || m.Addr == "" {
			continue
		}
		n.exchangeGossip(m.ID, m.Addr)
	}
	n.ensureLinks()
}

// joinVia runs the whole join conversation against one seed: the handshake,
// then catch-up shard by shard — each shard is its own seq domain with its
// own forest, so it is the unit a digest and its stream address.
// Transient failures return plain errors (the caller retries); divergent or
// missing history, or a seed of another protocol version or shard count,
// returns errJoinRefused.
func (n *Node) joinVia(seedID model.ReplicaID, addr string) error {
	conn, err := n.cfg.Transport.Dial(n.cfg.ID, seedID, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Every frame of the conversation is read through one frame reader into
	// its storage; each is decoded into values of its own (hashes, strings)
	// or, for range chunks, copied by applyUpdate, before the next read
	// overwrites it.
	fr := wire.NewFrameReader(conn)

	if !n.sendFrame(conn, func(w *wire.Writer) {
		appendJoin(w, joinReq{From: n.cfg.ID, Epoch: n.epoch.Load(), Addr: n.Addr(), Shards: uint64(len(n.shards))})
	}) {
		return errors.New("cluster: join announce write failed")
	}
	typ, r, err := readTyped(conn, fr, writeTimeout)
	if err != nil {
		return err
	}
	if typ != tJoinAck {
		return fmt.Errorf("cluster: join answered with frame type %d", typ)
	}
	version, shards, ms, err := decodeJoinAck(r, n.cfg.N)
	if err != nil {
		return err
	}
	if version != protoVersion {
		return fmt.Errorf("%w: seed r%d speaks protocol version %d, this node %d", errJoinRefused, seedID, version, protoVersion)
	}
	if shards != uint64(len(n.shards)) {
		return fmt.Errorf("%w: seed r%d runs %d shards, this node %d", errJoinRefused, seedID, shards, len(n.shards))
	}
	n.view.MergeAll(ms)
	// Auto-epoch: a record of us that is left, or alive at a higher epoch,
	// would supersede our announcement — bump past it so the rejoin wins.
	if m, ok := n.view.Get(int(n.cfg.ID)); ok && (m.Left || m.Epoch > n.epoch.Load()) {
		n.epoch.Store(m.Epoch + 1)
	}
	for _, s := range n.shards {
		if err := n.catchUp(conn, fr, s); err != nil {
			return err
		}
	}
	return nil
}

// catchUp brings one shard up to the donor's copy of it: one digest
// exchange, then the ranges owedRanges finds we lack, which the donor
// streams without being asked.
func (n *Node) catchUp(conn net.Conn, fr *wire.FrameReader, s *shard) error {
	// Digest exchange: per origin, what we hold vs what the donor holds —
	// committed first, as every count this node reports is.
	local := make([]originDigest, 0, n.cfg.N)
	if err := s.lock(); err != nil {
		return err
	}
	s.commit()
	for o := 0; o < n.cfg.N; o++ {
		local = append(local, originDigest{Origin: model.ReplicaID(o), Count: s.tree.Count(o), Root: s.tree.Root(o)})
	}
	s.turn.Unlock()
	if !n.sendFrame(conn, func(w *wire.Writer) { appendDigest(w, tDigest, s.idx, local) }) {
		return errors.New("cluster: digest write failed")
	}
	typ, r, err := readTyped(conn, fr, writeTimeout)
	if err != nil {
		return err
	}
	if typ != tDigestResp {
		return fmt.Errorf("cluster: digest answered with frame type %d", typ)
	}
	shard, remote, err := decodeDigest(r, true)
	if err != nil {
		return err
	}
	if shard != uint64(s.idx) {
		return fmt.Errorf("cluster: shard %d digest answered for shard %d", s.idx, shard)
	}
	owed, err := owedRanges(n.cfg.ID, s.idx, local, remote)
	if err != nil {
		return err
	}
	for _, o := range owed {
		if err := n.pullRange(conn, fr, s, o); err != nil {
			return err
		}
	}
	return nil
}

// owedRange is one origin's updates a donor streams a joiner: seqs From+1
// through To, and the donor's chain value over all To of them.
type owedRange struct {
	Origin   model.ReplicaID
	From, To uint64
	Root     membership.Hash
}

// owedRanges is the one rule for what a donor owes a joiner in a shard. Both
// ends run it on the same two digests — the joiner's (asked) and the donor's
// answer to it, entry for entry — so the donor streams exactly what the
// joiner reads. An origin is owed when the donor is ahead on it, the donor's
// chain value over the joiner's count is the joiner's root, and it is not the
// joiner itself. A chain mismatch (a corrupt log, or one from another
// cluster), or broadcasts of the joiner's own that its log lacks (re-minting
// their seqs would fork its history), refuses the join for good, and nothing
// is owed.
func owedRanges(joiner model.ReplicaID, shard int, asked, answered []originDigest) ([]owedRange, error) {
	if len(answered) != len(asked) {
		return nil, fmt.Errorf("cluster: shard %d digest answered for %d origins, %d asked", shard, len(answered), len(asked))
	}
	var owed []owedRange
	for i, ld := range asked {
		rd := answered[i]
		switch {
		case rd.Origin != ld.Origin:
			return nil, fmt.Errorf("cluster: shard %d digest answered for r%d where r%d was asked", shard, rd.Origin, ld.Origin)
		case rd.Count < ld.Count:
			continue // the donor is behind the joiner here; its own links catch it up
		case rd.PrefixRoot != ld.Root:
			return nil, fmt.Errorf("%w: shard %d origin r%d: the donor's first %d updates differ from ours — local log is corrupt or from another cluster",
				errJoinRefused, shard, ld.Origin, ld.Count)
		case rd.Count == ld.Count:
			continue
		case ld.Origin == joiner:
			return nil, fmt.Errorf("%w: the cluster holds %d of r%d's broadcasts but the local log has %d — rejoining as r%d needs its original log",
				errJoinRefused, rd.Count, joiner, ld.Count, joiner)
		}
		owed = append(owed, owedRange{Origin: ld.Origin, From: ld.Count, To: rd.Count, Root: rd.Root})
	}
	return owed, nil
}

// pullRange reads the donor's stream of one owed range of shard s: chunks
// of o.Origin's updates, each starting where the one before ended, until one
// ends at o.To — the count the donor reported, not our log's length, which
// live links may move meanwhile. Each chunk is applied and committed in one
// turn, so a kill -9 mid-sync keeps every chunk applied before it and the
// restarted join's digest asks only for the rest.
func (n *Node) pullRange(conn net.Conn, fr *wire.FrameReader, s *shard, o owedRange) error {
	var us []protoUpdate // each chunk, decoded
	for at := o.From; at < o.To; {
		typ, r, err := readTyped(conn, fr, writeTimeout)
		if err != nil {
			return err
		}
		if typ != tRangeResp {
			return fmt.Errorf("cluster: range stream interrupted by frame type %d", typ)
		}
		var shard uint64
		if shard, us, err = decodeRange(r, us); err != nil {
			return err
		}
		if shard != uint64(s.idx) || us[0].Origin != o.Origin || us[0].Seq != at+1 || us[len(us)-1].Seq > o.To {
			return errors.New("cluster: range chunk mislabeled or out of sequence")
		}
		at = us[len(us)-1].Seq
		applied, err := s.applyRun(us, true)
		if err != nil {
			return err
		}
		n.count[cSyncPulled].Add(applied)
	}
	// End-to-end integrity: the prefix we now hold over the donor's count
	// must reproduce the donor's root, or something shipped wrong.
	if err := s.lock(); err != nil {
		return err
	}
	root := s.tree.PrefixRoot(int(o.Origin), o.To, s.updatePayload)
	s.turn.Unlock()
	if root != o.Root {
		return fmt.Errorf("%w: shard %d origin r%d's pulled range fails digest verification", errJoinRefused, s.idx, o.Origin)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Donor side

// serveJoin is the donor half of a join conversation: answer the joiner's
// digest of each shard, in shard order, and stream it every range
// owedRanges finds it lacks, unasked; any other frame hangs up on it. A
// joiner is admitted to the view and linked back only after every shard's
// digest came out clean and the joiner hung up: a refused joiner is never
// sent a live update, and the new link's hello finds the joiner holding
// all that was streamed, so nothing crosses twice.
func (n *Node) serveJoin(conn net.Conn, j joinReq, fr *wire.FrameReader) {
	if int(j.From) < 0 || int(j.From) >= n.cfg.N || j.From == n.cfg.ID {
		return
	}
	if j.Version != protoVersion || j.Shards != uint64(len(n.shards)) {
		// Answered, so the joiner learns our version and shard count, then
		// refused — before it is admitted to the view.
		n.sendFrame(conn, func(w *wire.Writer) { appendJoinAck(w, len(n.shards), nil) })
		return
	}
	if !n.sendFrame(conn, func(w *wire.Writer) { appendJoinAck(w, len(n.shards), n.view.Members()) }) {
		return
	}
	z := wire.GetDeflater() // compresses every range chunk this conversation serves
	defer wire.PutDeflater(z)
	for _, s := range n.shards {
		typ, r, err := readTyped(conn, fr, 0)
		if err != nil || typ != tDigest {
			return
		}
		shard, asked, err := decodeDigest(r, false)
		if err != nil || shard != uint64(s.idx) {
			return
		}
		answered, err := digestResp(s, asked)
		if err != nil || !n.sendFrame(conn, func(w *wire.Writer) { appendDigest(w, tDigestResp, s.idx, answered) }) {
			return
		}
		owed, err := owedRanges(j.From, s.idx, asked, answered)
		if err != nil {
			return // the joiner refuses on the same two digests
		}
		for _, o := range owed {
			if !n.serveRange(conn, s, o.Origin, o.From, o.To, z) {
				return
			}
		}
	}
	if _, err := recvFrame(fr, wire.DefaultMaxFrame); err == nil {
		return // the joiner had nothing left to say
	}
	if j.Addr != "" {
		n.view.Merge(membership.Member{ID: int(j.From), Addr: j.Addr, Epoch: j.Epoch})
	}
	n.markDynamic()
	n.ensureLinks()
}

// digestResp answers a joiner's digest of shard s with, per origin it asked
// about, our count and root plus the root over the joiner's own count — the
// prefix proof owedRanges checks — in a turn that first commits what the
// shard staged, so nothing reported or streamed can be lost to a crash. The
// origins must be members, in ascending order, so no range is streamed
// twice; a digest that names others, or one the shard cannot answer because
// the node is closing, is an error.
func digestResp(s *shard, ds []originDigest) ([]originDigest, error) {
	for i, d := range ds {
		if int(d.Origin) < 0 || int(d.Origin) >= s.n.cfg.N || i > 0 && d.Origin <= ds[i-1].Origin {
			return nil, fmt.Errorf("cluster: digest of shard %d names r%d out of order or outside the cluster", s.idx, d.Origin)
		}
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.turn.Unlock()
	s.commit()
	if s.jerr != nil {
		return nil, s.jerr
	}
	resp := make([]originDigest, 0, len(ds))
	for _, d := range ds {
		o := int(d.Origin)
		e := originDigest{Origin: d.Origin, Count: s.tree.Count(o), Root: s.tree.Root(o)}
		if d.Count <= e.Count {
			e.PrefixRoot = s.tree.PrefixRoot(o, d.Count, s.updatePayload)
		}
		resp = append(resp, e)
	}
	return resp, nil
}

// serveRange streams origin's updates from+1 through to in shard s to a
// joiner, straight out of the shard's log in chunks cut by cutBatch (up to
// BatchMax updates, ending early at a log segment boundary). to is the count
// the donor reported, which its log never falls below. Nothing comes back:
// the joiner applies and journals each chunk as it reads it, and whatever a
// kill -9 cuts off, the restarted join's digest shows missing again.
func (n *Node) serveRange(conn net.Conn, s *shard, origin model.ReplicaID, from, to uint64, z *wire.Deflater) bool {
	var us []protoUpdate // the chunk being sent, read back out of the log
	var payloads []byte  // the payloads the log rebuilds for it
	enc := wire.GetWriter()
	defer wire.PutWriter(enc)
	for at := from; at < to; at = us[len(us)-1].Seq {
		us, _ = s.logRun(origin, at, us, &payloads)
		us = us[:cutBatch(us, int(min(BatchMax, to-at)), 0)]
		if len(us) == 0 {
			return false
		}
		// Count before the write: the joiner may finish, and a caller read
		// this node's Stats, before this goroutine runs again.
		n.count[cSyncServed].Add(int64(len(us)))
		enc.Reset()
		enc.BeginFrame()
		appendRange(enc, s.idx, origin, us)
		if _, err := n.writeEnc(conn, enc, wire.DefaultMaxFrame, z); err != nil { // a bulk frame
			n.count[cSyncServed].Add(-int64(len(us)))
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Small conn helpers (sendFrame and recvFrame are in compress.go)

// readTyped reads one frame of conn through its frame reader fr (with an
// optional read deadline) — see recvFrame for its lifetime — and peels its
// type tag.
func readTyped(conn net.Conn, fr *wire.FrameReader, deadline time.Duration) (uint64, *wire.Reader, error) {
	if deadline > 0 {
		conn.SetReadDeadline(time.Now().Add(deadline))
	}
	b, err := recvFrame(fr, wire.DefaultMaxFrame)
	if err != nil {
		return 0, nil, err
	}
	r := wire.NewReader(b)
	typ := r.Uvarint()
	return typ, r, r.Err()
}
