package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/wire"
)

// gatedCommits is a JournalStorage whose journals, while the gate is held,
// hold every commit of a receive until it is opened, signalling entered as
// one arrives, and count the receives they made durable: a receiver that
// stages at once and makes durable late.
type gatedCommits struct {
	entered chan struct{}

	mu        sync.Mutex
	release   chan struct{} // closed while the gate is open
	committed int
}

type gatedJournal struct {
	g        *gatedCommits
	receives int // staged since the last commit
}

func newGatedCommits() *gatedCommits {
	g := &gatedCommits{entered: make(chan struct{}, 1), release: make(chan struct{})}
	close(g.release)
	return g
}

// hold closes the gate; open opens it, releasing every commit it held.
func (g *gatedCommits) hold() {
	g.mu.Lock()
	g.release = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedCommits) open() {
	g.mu.Lock()
	select {
	case <-g.release:
	default:
		close(g.release)
	}
	g.mu.Unlock()
}

func (g *gatedCommits) OpenJournal(model.ReplicaID, int, string, int, int, func([]byte) error) (Journal, error) {
	return &gatedJournal{g: g}, nil
}

func (g *gatedCommits) Open(model.ReplicaID, int, string, int, int) (func(Event) error, *History, *membership.Forest, func() error, error) {
	panic("gatedCommits journals through OpenJournal")
}

// durable returns how many receives the journals have committed.
func (g *gatedCommits) durable() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.committed
}

func (j *gatedJournal) Stage(rec []byte) error {
	if model.Action(wire.NewReader(rec).Uvarint()) == model.ActReceive {
		j.receives++
	}
	return nil
}

func (j *gatedJournal) Commit() error {
	if j.receives == 0 {
		return nil
	}
	j.g.mu.Lock()
	release := j.g.release
	j.g.mu.Unlock()
	select {
	case j.g.entered <- struct{}{}:
	default:
	}
	<-release
	j.g.mu.Lock()
	j.g.committed += j.receives
	j.g.mu.Unlock()
	j.receives = 0
	return nil
}

func (j *gatedJournal) Close() error { return nil }

// TestCommitWindowNoAnswerCountsUncommitted: a received update is staged,
// and nothing outside the node may count it before a commit makes it
// durable. A turn that only receives commits nothing; a hello ack and a join
// digest answer each commit first, so while r1's commit is held, r1 gives
// neither: r0 stays undrained however often the quiescence check asks, and
// the digest goes unanswered. Released, each answer counts the update, which
// is durable by then.
func TestCommitWindowNoAnswerCountsUncommitted(t *testing.T) {
	gate := newGatedCommits()
	nodes := meshOf(t, 2, func(i int) NodeStorage {
		if i == 1 {
			return gate
		}
		return nil
	})
	t.Cleanup(gate.open) // runs before the nodes close: a held commit would wedge Close
	r0, r1 := nodes[0], nodes[1]
	acked := func() uint64 {
		p := r0.allPeers()[0]
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.cursors[0].lastAcked
	}
	// write makes one update at r0 and waits until r1 has applied it, with
	// the gate held; a turn that only receives must not reach the gate.
	write := func(v model.Value, received int64) {
		t.Helper()
		gate.hold()
		if _, err := r0.Do("x", model.Write(v)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); r1.shards[0].receives.Load() != received; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("r1 never applied the update")
			}
		}
		time.Sleep(50 * time.Millisecond) // room for a commit, were the receiving turn to make one
		select {
		case <-gate.entered:
			t.Fatal("a turn that only received an update committed it")
		default:
		}
	}
	entered := func(what string) {
		t.Helper()
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never committed", what)
		}
	}

	// The quiescence check asks r1 what it delivered.
	write("asked", 1)
	for i := 0; i < 20; i++ {
		if r0.Quiesced() {
			t.Fatalf("poll %d: r0 drained while r1's commit of the update is held", i)
		}
		time.Sleep(10 * time.Millisecond)
	}
	entered("the hello ack")
	if got := acked(); got != 0 {
		t.Fatalf("a hello ack counted %d uncommitted updates", got)
	}
	gate.open()
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatalf("r0 never drained after r1's commit was released: %+v", r0.Stats())
	}
	if got, durable := acked(), gate.durable(); got != 1 || durable != 1 {
		t.Fatalf("r0 holds a delivered count of %d with %d receives durable; want 1 of each", got, durable)
	}

	// A joiner's digest asks r1 what it holds of r0's updates.
	write("digested", 2)
	answered := make(chan []originDigest, 1)
	go func() {
		a, err := digestResp(r1.shards[0], []originDigest{{Origin: 0}, {Origin: 1}})
		if err != nil {
			t.Error(err)
		}
		answered <- a
	}()
	select {
	case a := <-answered:
		t.Fatalf("the digest was answered (%+v) before the update was committed", a)
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the digest answer never committed")
	}
	select {
	case a := <-answered:
		t.Fatalf("the digest was answered (%+v) before the update was committed", a)
	case <-time.After(100 * time.Millisecond):
	}
	gate.open()
	if a := <-answered; a == nil || a[0].Count != 2 || gate.durable() != 2 {
		t.Fatalf("released, the digest answered %+v with %d receives durable; want r0's two updates, committed", a, gate.durable())
	}
}

// TestRestartWithoutHistoryFailStops is the first probe of a restart that
// lost its history: r1 restarts empty on its own address under the same id,
// links to r0, and writes. r0's link redials r1's address first, and r1b's
// hello ack says it holds 0 of the 10 r0 updates r1 acknowledged: r0 stops
// that link and counts it, instead of streaming into the gap. Then r1b's
// own link opens, r0's hello ack reports 10 of r1's broadcasts where r1b's
// log has none, and r1b fail-stops with errLostHistory instead of numbering
// new updates from 1 — seqs r0 already holds for different updates.
// Without the checks r1b kept serving, the pair diverged silently and never
// quiesced: r0 resent from its old watermark of 10 and r1b dropped every
// frame as a gap.
func TestRestartWithoutHistoryFailStops(t *testing.T) {
	r0 := bootNode(t, 0, 2, nil)
	r1 := bootNode(t, 1, 2, nil)
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	writeN(t, r0, 10, "a")
	writeN(t, r1, 10, "b")
	if !WaitQuiesced([]*Node{r0, r1}, 10*time.Second) {
		t.Fatal("the pair never quiesced")
	}
	addr := r1.Addr()
	r1.Close()
	r1b := bootNode(t, 1, 2, func(cfg *Config) { cfg.Listen = addr })

	for deadline := time.Now().Add(5 * time.Second); r0.Stats().FailedLinks != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r0 never stopped its link to the peer that lost what it acknowledged: %+v", r0.Stats())
		}
	}
	if err := r0.allPeers()[0].failure(); err == nil || !strings.Contains(err.Error(), "lost updates it had acknowledged") {
		t.Fatalf("r0's link failed with %v; want the regressed count named", err)
	}

	if err := r1b.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r1b.Do("c", model.Write("late")) // fails once r1b has fail-stopped
	}
	writeN(t, r0, 5, "d")
	for deadline := time.Now().Add(5 * time.Second); r1b.Err() == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r1b kept serving after restarting without its history: %+v", r1b.Stats())
		}
	}
	if err := r1b.Err(); !errors.Is(err, errLostHistory) || !strings.Contains(err.Error(), "-join") {
		t.Fatalf("r1b fail-stopped with %v; want errLostHistory, naming -join", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := r1b.Do("c", model.Read()); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a fail-stopped node kept serving reads")
		}
	}
	if st := r1b.Stats(); st.GapFrames != 0 || st.Receives != 0 {
		t.Fatalf("r1b was streamed into the gap: %d gap frames, %d receives", st.GapFrames, st.Receives)
	}
}

// TestRestartWithoutHistoryFailedLinkNotQuiesced: r1 restarts empty on its
// own address and writes 15 before it links, more than the 10 of its
// updates r0 holds, so r1b does not fail-stop, and r0 accepts seqs 11 to 15
// of a log whose first 10 it holds different updates for. r0's link to r1
// has failed, on the count r1b's hello ack regressed to, and will never
// send r1b r0's updates: the pair has diverged, and neither r0 nor the pair
// may read as quiesced. r0 used to report quiesced all the same, since a
// failed link reads as drained.
func TestRestartWithoutHistoryFailedLinkNotQuiesced(t *testing.T) {
	r0 := bootNode(t, 0, 2, nil)
	r1 := bootNode(t, 1, 2, nil)
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	writeN(t, r0, 10, "a")
	writeN(t, r1, 10, "b")
	if !WaitQuiesced([]*Node{r0, r1}, 10*time.Second) {
		t.Fatal("the pair never quiesced")
	}
	addr := r1.Addr()
	r1.Close()
	r1b := bootNode(t, 1, 2, func(cfg *Config) { cfg.Listen = addr })
	writeN(t, r1b, 15, "d")
	if err := r1b.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); r0.Stats().FailedLinks != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r0 never stopped its link to the peer that lost what it acknowledged: %+v", r0.Stats())
		}
	}
	if WaitQuiesced([]*Node{r0, r1b}, time.Second) {
		t.Fatalf("the pair reads as quiesced over r0's failed link: r0 %+v", r0.Stats())
	}
	if st := r0.Stats(); st.Quiesced {
		t.Fatalf("r0 reports quiesced with %d failed links", st.FailedLinks)
	}
}
