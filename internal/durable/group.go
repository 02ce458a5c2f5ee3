package durable

import "sync"

// A GroupCommitter coalesces fsyncs across the durable logs that share it —
// one per sharded node, covering every shard's wal. Without it, S shards
// appending concurrently cost S fsyncs per tick even though the device
// flushes everything in its write cache at once; with it, appends that
// overlap in time ride one fsync round per dirty file, and the common case
// (every shard busy) converges to one coordinated flush instead of S
// uncoordinated ones.
//
// The protocol is leader/follower, with no background goroutine and no
// timer: the first Commit to arrive while no flush is running becomes the
// round's leader and fsyncs every file the round accumulated; Commits that
// arrive while the leader is flushing join the NEXT round and block until
// its flush completes. Batching therefore emerges from the fsync latency
// itself — the slower the device, the more appends each round absorbs — and
// an idle committer adds zero latency: a lone Commit flushes immediately.
//
// Durability is preserved because a file's fsync is ordered after the
// caller's write (the caller writes under its log's mutex before calling
// Commit, and Commit returns only after a Sync that started after the
// write). An error from the covering Sync is returned to every caller of
// that round; each such caller's append may not be durable, which the node
// treats as fail-stop exactly like a direct fsync failure.
type GroupCommitter struct {
	mu   sync.Mutex
	cur  *commitRound // round accepting joiners, nil if none pending
	busy bool         // a leader is flushing
	free *commitRound // a finished round kept for reuse, so a lone Commit allocates nothing
}

// syncable is the slice of *os.File the committer needs. An interface so
// tests can inject failing or counting files.
type syncable interface {
	Sync() error
}

// commitRound is one fsync batch: the distinct files its joiners dirtied,
// how many followers block on it, and the channel the leader hands each of
// them the round's error on. Once every follower has been handed its error
// nobody holds the round any more, which is what lets the leader recycle it.
type commitRound struct {
	files     []syncable // at most one per log sharing the committer
	followers int
	done      chan error
}

// NewGroupCommitter returns an empty committer.
func NewGroupCommitter() *GroupCommitter {
	return &GroupCommitter{}
}

// Commit makes the caller's preceding writes to f durable and returns the
// covering Sync's error. Blocks until an fsync of f that began after entry
// has completed.
func (g *GroupCommitter) Commit(f syncable) error {
	g.mu.Lock()
	if g.cur == nil {
		if g.cur, g.free = g.free, nil; g.cur == nil {
			g.cur = &commitRound{done: make(chan error)}
		}
	}
	r := g.cur
	r.add(f)
	if g.busy {
		// Follower: the running leader will flush this round when its
		// current one completes.
		r.followers++
		g.mu.Unlock()
		return <-r.done
	}
	// Leader: flush rounds until none accumulated while we worked. Later
	// rounds belong to followers who joined during our flushes; there is no
	// other leader to run them.
	g.busy = true
	var own error
	for cur, first := r, true; ; first = false {
		// Taking the round out of g.cur under the lock closes it to joiners:
		// its files and follower count are final from here on.
		g.cur = nil
		g.mu.Unlock()
		var err error
		for _, f := range cur.files {
			if e := f.Sync(); e != nil && err == nil {
				err = e
			}
		}
		// Only the first flush is the leader's own. Not "cur == r": r is
		// recycled below and can come back as a later round.
		if first {
			own = err
		}
		for ; cur.followers > 0; cur.followers-- {
			cur.done <- err
		}
		clear(cur.files)
		cur.files = cur.files[:0]
		g.mu.Lock()
		g.free = cur
		if g.cur == nil {
			g.busy = false
			g.mu.Unlock()
			return own
		}
		cur = g.cur
	}
}

// add records that the round must sync f. Rounds hold a handful of files, so
// a linear scan beats a map — and allocates nothing.
func (r *commitRound) add(f syncable) {
	for _, have := range r.files {
		if have == f {
			return
		}
	}
	r.files = append(r.files, f)
}
