package durable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowFile counts Syncs and stalls each one, so concurrent Commits pile
// into rounds the way they would behind a real fsync.
type slowFile struct {
	syncs atomic.Int64
	delay time.Duration
	fail  atomic.Bool
}

func (f *slowFile) Sync() error {
	f.syncs.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail.Load() {
		return errors.New("injected sync failure")
	}
	return nil
}

// TestGroupCommitCoalesces drives many goroutines through one committer:
// every Commit must succeed, and the fsync count must come in well under
// one per Commit — the whole point of the group. The per-file guarantee
// (Commit returns only after a Sync of that file started after entry) is
// what the sharded node's acked-⇒-on-disk rests on, so it is checked per
// file, not just in aggregate.
func TestGroupCommitCoalesces(t *testing.T) {
	g := NewGroupCommitter()
	const files = 4
	const workers = 8
	const commits = 50
	fs := make([]*slowFile, files)
	for i := range fs {
		fs[i] = &slowFile{delay: time.Millisecond}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				if err := g.Commit(fs[(w+i)%files]); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var total int64
	for i, f := range fs {
		n := f.syncs.Load()
		if n == 0 {
			t.Fatalf("file %d never synced", i)
		}
		total += n
	}
	if total >= workers*commits {
		t.Fatalf("%d syncs for %d commits — no coalescing", total, workers*commits)
	}
	t.Logf("%d commits coalesced into %d syncs", workers*commits, total)
}

// TestGroupCommitSoloFlushesImmediately: an idle committer must add no
// batching latency — a lone Commit is its own leader and returns after one
// direct Sync.
func TestGroupCommitSoloFlushesImmediately(t *testing.T) {
	g := NewGroupCommitter()
	f := &slowFile{}
	if err := g.Commit(f); err != nil {
		t.Fatal(err)
	}
	if n := f.syncs.Load(); n != 1 {
		t.Fatalf("solo commit synced %d times, want 1", n)
	}
}

// TestGroupCommitSoloAllocatesNothing pins the common case on an idle or
// single-shard committer: a Commit that is alone reuses the round the
// previous one finished with.
func TestGroupCommitSoloAllocatesNothing(t *testing.T) {
	g := NewGroupCommitter()
	f := &slowFile{}
	if err := g.Commit(f); err != nil { // the first round is allocated
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := g.Commit(f); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("solo Commit allocates %.1f times", avg)
	}
}

// TestGroupCommitErrorPropagates: a failing Sync must error every Commit of
// its round (any of their appends may not be durable), and a later round
// against a healed file must succeed — the committer itself carries no
// sticky state.
func TestGroupCommitErrorPropagates(t *testing.T) {
	g := NewGroupCommitter()
	f := &slowFile{delay: 2 * time.Millisecond}
	f.fail.Store(true)
	const workers = 6
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- g.Commit(f)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("a commit in a failing round returned nil")
		}
	}
	f.fail.Store(false)
	if err := g.Commit(f); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
}

// gatedFile hands each Sync to the test: it announces the call on entered
// and returns whatever the test sends on release, so a test decides exactly
// which round fails and who joins while it runs.
type gatedFile struct {
	entered chan struct{}
	release chan error
}

func (f *gatedFile) Sync() error {
	f.entered <- struct{}{}
	return <-f.release
}

// TestGroupCommitErrorIsPerRound: a leader that goes on to flush later
// rounds for its followers must still return its OWN round's result, and
// each follower the result of the round it joined — even when a finished
// round's struct is recycled into a later round of the same leader. Round 1
// failing with rounds 2 and 3 healthy must not ack the leader's append;
// round 3 failing must not fail it.
func TestGroupCommitErrorIsPerRound(t *testing.T) {
	bad := errors.New("injected sync failure")
	for _, tc := range []struct {
		name   string
		rounds [3]error
	}{
		{"first round fails", [3]error{bad, nil, nil}},
		{"last round fails", [3]error{nil, nil, bad}},
		{"middle round fails", [3]error{nil, bad, nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroupCommitter()
			f := &gatedFile{entered: make(chan struct{}), release: make(chan error)}
			// got[0] is the leader, got[i] the follower that joins during
			// flush i and so rides round i+1.
			var got [3]chan error
			for i := range got {
				got[i] = make(chan error, 1)
			}
			commit := func(i int) { got[i] <- g.Commit(f) }
			joined := func() {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for {
					g.mu.Lock()
					ok := g.cur != nil && g.cur.followers == 1
					g.mu.Unlock()
					if ok {
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("follower never joined the pending round")
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			go commit(0)
			for round := 0; round < 3; round++ {
				<-f.entered
				if round < 2 {
					go commit(round + 1)
					joined()
				}
				f.release <- tc.rounds[round]
			}
			for i, want := range tc.rounds {
				select {
				case err := <-got[i]:
					if err != want {
						t.Errorf("commit of round %d returned %v, want %v", i+1, err, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("commit of round %d never returned", i+1)
				}
			}
		})
	}
}

// TestGroupCommitShardedStorageShares: opening several shards through one
// durable.Storage must route their appends through a shared committer, and
// a round must sync only the files its joiners dirtied.
func TestGroupCommitShardedStorageShares(t *testing.T) {
	g := NewGroupCommitter()
	s := &Storage{Dir: t.TempDir(), Opts: Options{Group: g}}
	const shards = 4
	closers := make([]func() error, shards)
	appendFns := make([]func() error, shards)
	for sh := 0; sh < shards; sh++ {
		app, hist, tree, closeFn, err := s.Open(1, 3, "causal", sh, shards)
		if err != nil {
			t.Fatal(err)
		}
		if hist != nil || tree != nil {
			t.Fatalf("shard %d: fresh open returned history %v, tree %v; the shard owns the forest", sh, hist, tree)
		}
		closers[sh] = closeFn
		evs := sampleEvents(8)
		i := 0
		appendFns[sh] = func() error {
			ev := evs[i%len(evs)]
			i++
			return app(ev)
		}
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := appendFns[sh](); err != nil {
					t.Errorf("shard %d append: %v", sh, err)
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for sh, c := range closers {
		if err := c(); err != nil {
			t.Fatalf("shard %d close: %v", sh, err)
		}
	}
	// Every shard's journal landed in its own directory.
	for sh := 0; sh < shards; sh++ {
		app, hist, _, closeFn, err := s.Open(1, 3, "causal", sh, shards)
		if err != nil {
			t.Fatalf("shard %d reopen: %v", sh, err)
		}
		_ = app
		if hist == nil || len(hist.Events) != 8 {
			got := 0
			if hist != nil {
				got = len(hist.Events)
			}
			t.Fatalf("shard %d recovered %d events, want 8", sh, got)
		}
		if err := closeFn(); err != nil {
			t.Fatal(err)
		}
	}
}
