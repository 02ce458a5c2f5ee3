package fault

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, N: 3, Steps: 100, Partitions: 2, Crashes: 1, LinkFaults: 3}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced different schedules:\n%v\n%v", a, b)
	}
	c := Generate(Config{Seed: 43, N: 3, Steps: 100, Partitions: 2, Crashes: 1, LinkFaults: 3})
	if reflect.DeepEqual(a.Directives, c.Directives) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateBalancedWindows: every window-opening directive has a closing
// counterpart at a strictly later step, so schedules always heal themselves
// before the timeline ends.
func TestGenerateBalancedWindows(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := Generate(Config{Seed: seed, N: 4, Steps: 120, Partitions: 2, Crashes: 2, LinkFaults: 4})
		parts, crashes, links := s.Counts()
		if parts != 2 || crashes != 2 || links != 4 {
			t.Fatalf("seed %d: counts = %d/%d/%d", seed, parts, crashes, links)
		}
		opens := map[Kind]int{}
		for _, d := range s.Directives {
			if d.Step < 0 || d.Step >= s.Steps {
				t.Fatalf("seed %d: directive outside timeline: %+v", seed, d)
			}
			switch d.Kind {
			case KindPartition:
				opens[KindPartition]++
				if len(d.Groups) != 2 || len(d.Groups[0]) == 0 || len(d.Groups[1]) == 0 {
					t.Fatalf("seed %d: degenerate partition %+v", seed, d)
				}
			case KindHeal:
				opens[KindPartition]--
			case KindCrash:
				opens[KindCrash]++
			case KindRestart:
				opens[KindCrash]--
			case KindLinkCut:
				opens[KindLinkCut]++
			case KindLinkRestore:
				opens[KindLinkCut]--
			case KindLinkDelay, KindLinkDup, KindLinkReorder, KindLinkRate:
				opens[KindLinkClear]++
				if d.From == d.To {
					t.Fatalf("seed %d: self link %+v", seed, d)
				}
			case KindLinkClear:
				opens[KindLinkClear]--
			}
		}
		for k, open := range opens {
			if open != 0 {
				t.Fatalf("seed %d: %d unclosed %s windows", seed, open, k)
			}
		}
		// Distinct crash victims: a node never crashes while already down.
		down := map[int]bool{}
		for _, d := range s.Directives {
			switch d.Kind {
			case KindCrash:
				if down[d.Node] {
					t.Fatalf("seed %d: r%d crashed while down", seed, d.Node)
				}
				down[d.Node] = true
			case KindRestart:
				down[d.Node] = false
			}
		}
		// CheckBalanced is the reusable form of the assertions above.
		if err := s.CheckBalanced(); err != nil {
			t.Fatalf("seed %d: CheckBalanced: %v", seed, err)
		}
	}
}

// TestCheckBalancedRejects: CheckBalanced is not vacuous — it flags
// hand-built schedules that violate each invariant.
func TestCheckBalancedRejects(t *testing.T) {
	bad := []Schedule{
		{Steps: 10, Directives: []Directive{{Step: 12, Kind: KindHeal}}},
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindPartition, Groups: [][]int{{0}, {1}}}}},
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindCrash, Node: 0}, {Step: 2, Kind: KindCrash, Node: 0}}},
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindRestart, Node: 0}}},
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindLinkCut, From: 0, To: 1}}},
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindLinkClear, From: 0, To: 1}}},
		{Steps: 10, Directives: []Directive{
			{Step: 1, Kind: KindLinkDelay, From: 0, To: 0, DelaySteps: 1},
			{Step: 2, Kind: KindLinkClear, From: 0, To: 0},
		}},
		{Steps: 10, Directives: []Directive{
			{Step: 1, Kind: KindLinkRate, From: 0, To: 1},
			{Step: 2, Kind: KindLinkClear, From: 0, To: 1},
		}},
	}
	for i, s := range bad {
		if err := s.CheckBalanced(); err == nil {
			t.Fatalf("case %d: CheckBalanced accepted an unbalanced schedule: %+v", i, s)
		}
	}
	if err := (Schedule{}).CheckBalanced(); err != nil {
		t.Fatalf("empty schedule rejected: %v", err)
	}
}

func TestNetemPartitionAndHeal(t *testing.T) {
	em := NewNetem(3)
	em.Apply(Directive{Kind: KindPartition, Groups: [][]int{{0, 2}, {1}}}, time.Millisecond)
	if em.Cut(0, 2) || em.Cut(2, 0) {
		t.Fatal("same-group link cut")
	}
	if !em.Cut(0, 1) || !em.Cut(1, 0) || !em.Cut(1, 2) {
		t.Fatal("cross-group link not cut")
	}
	em.Apply(Directive{Kind: KindHeal}, time.Millisecond)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if em.Cut(i, j) {
				t.Fatalf("link %d->%d still cut after heal", i, j)
			}
		}
	}
	// A node absent from every group is isolated.
	em.Apply(Directive{Kind: KindPartition, Groups: [][]int{{0, 1}}}, time.Millisecond)
	if !em.Cut(2, 0) || !em.Cut(0, 2) {
		t.Fatal("ungrouped node not isolated")
	}
}

// writeFrame writes payload as one length-delimited frame in one Write, as
// a node writes every frame: Netem shapes each Write as one frame.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	return w.Write(append(binary.AppendUvarint(nil, uint64(len(payload))), payload...))
}

// pipeFrames reads frames off a conn until it closes, delivering payloads.
func pipeFrames(t *testing.T, conn net.Conn) <-chan []byte {
	t.Helper()
	out := make(chan []byte, 16)
	go func() {
		defer close(out)
		fr := wire.NewFrameReader(conn)
		for {
			b, err := fr.ReadFrame(0)
			if err != nil {
				return
			}
			out <- append([]byte(nil), b...)
		}
	}()
	return out
}

// TestShapedConnDupAndReorder: the emulator shapes a connection only as TCP
// can be shaped. Dup repeats a frame in place, and an open reorder window
// changes nothing — frames arrive in the order they were written, which is
// the premise of a link's cumulative acks.
func TestShapedConnDupAndReorder(t *testing.T) {
	em := NewNetem(2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := em.WrapConn(a, 0, 1)
	got := pipeFrames(t, b)

	write := func(p string) {
		if _, err := writeFrame(w, []byte(p)); err != nil {
			t.Fatalf("write %q: %v", p, err)
		}
	}
	expect := func(p string) {
		select {
		case f, ok := <-got:
			if !ok || string(f) != p {
				t.Fatalf("got %q (ok=%v), want %q", f, ok, p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for %q", p)
		}
	}

	write("hello") // first frame always passes unshaped
	expect("hello")

	em.Apply(Directive{Kind: KindLinkDup, From: 0, To: 1}, time.Millisecond)
	write("u1")
	expect("u1")
	expect("u1")
	em.Apply(Directive{Kind: KindLinkClear, From: 0, To: 1}, time.Millisecond)

	em.Apply(Directive{Kind: KindLinkReorder, From: 0, To: 1}, time.Millisecond)
	write("u2")
	write("u3")
	expect("u2")
	expect("u3")
	em.Apply(Directive{Kind: KindLinkClear, From: 0, To: 1}, time.Millisecond)

	write("u4")
	expect("u4")
}

func TestShapedConnCutFailsWrites(t *testing.T) {
	em := NewNetem(2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w := em.WrapConn(a, 0, 1)
	got := pipeFrames(t, b)

	if _, err := writeFrame(w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	<-got

	em.Apply(Directive{Kind: KindLinkCut, From: 0, To: 1}, time.Millisecond)
	if _, err := writeFrame(w, []byte("lost")); !errors.Is(err, ErrLinkCut) {
		t.Fatalf("write on cut link: err = %v, want ErrLinkCut", err)
	}
	em.Apply(Directive{Kind: KindLinkRestore, From: 0, To: 1}, time.Millisecond)
	if _, err := writeFrame(w, []byte("back")); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	select {
	case f := <-got:
		if string(f) != "back" {
			t.Fatalf("got %q after restore", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout after restore")
	}
}

// TestGenerateChurnWindows: churn windows are balanced leave→join pairs on
// victims disjoint from the crash victims, the cap keeps crashes+churns
// within N, and a zero-churn config generates byte-identical schedules to
// the pre-churn generator (no extra RNG draws).
func TestGenerateChurnWindows(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := Generate(Config{Seed: seed, N: 4, Steps: 120, Partitions: 1, Crashes: 1, LinkFaults: 2, Churns: 2})
		if err := s.CheckBalanced(); err != nil {
			t.Fatalf("seed %d: CheckBalanced: %v", seed, err)
		}
		crashVictims := map[int]bool{}
		churnVictims := map[int]bool{}
		leaves, joins := 0, 0
		for _, d := range s.Directives {
			switch d.Kind {
			case KindCrash:
				crashVictims[d.Node] = true
			case KindLeave:
				leaves++
				if churnVictims[d.Node] {
					t.Fatalf("seed %d: r%d left twice", seed, d.Node)
				}
				churnVictims[d.Node] = true
			case KindJoin:
				joins++
			}
		}
		if leaves != 2 || joins != 2 {
			t.Fatalf("seed %d: %d leaves / %d joins, want 2/2", seed, leaves, joins)
		}
		for v := range churnVictims {
			if crashVictims[v] {
				t.Fatalf("seed %d: r%d is both crash and churn victim", seed, v)
			}
		}
	}

	// The cap: 3 nodes with 2 crash victims leave room for exactly one
	// churn victim, however many windows were requested.
	s := Generate(Config{Seed: 7, N: 3, Steps: 120, Crashes: 2, Churns: 5})
	leaves := 0
	for _, d := range s.Directives {
		if d.Kind == KindLeave {
			leaves++
		}
	}
	if leaves != 1 {
		t.Fatalf("cap: %d leaves with 2 crashes on 3 nodes, want 1", leaves)
	}

	// Churns: 0 must not perturb the schedule stream existing benchmarks
	// are pinned to.
	with := Generate(Config{Seed: 9, N: 3, Steps: 100, Partitions: 2, Crashes: 1, LinkFaults: 3})
	without := Generate(Config{Seed: 9, N: 3, Steps: 100, Partitions: 2, Crashes: 1, LinkFaults: 3, Churns: 0})
	if !reflect.DeepEqual(with, without) {
		t.Fatal("Churns:0 changed the generated schedule")
	}
}

// TestCheckBalancedRejectsChurn: the churn invariants are enforced, not
// just generated.
func TestCheckBalancedRejectsChurn(t *testing.T) {
	bad := []Schedule{
		// Leave without a join: the node never comes back.
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindLeave, Node: 0}}},
		// Join of a node that never left.
		{Steps: 10, Directives: []Directive{{Step: 1, Kind: KindJoin, Node: 0}}},
		// Crash while departed: ambiguous recovery path.
		{Steps: 10, Directives: []Directive{
			{Step: 1, Kind: KindLeave, Node: 0},
			{Step: 2, Kind: KindCrash, Node: 0},
			{Step: 3, Kind: KindRestart, Node: 0},
			{Step: 4, Kind: KindJoin, Node: 0},
		}},
		// Leave while crashed.
		{Steps: 10, Directives: []Directive{
			{Step: 1, Kind: KindCrash, Node: 0},
			{Step: 2, Kind: KindLeave, Node: 0},
			{Step: 3, Kind: KindRestart, Node: 0},
			{Step: 4, Kind: KindJoin, Node: 0},
		}},
		// Double leave.
		{Steps: 10, Directives: []Directive{
			{Step: 1, Kind: KindLeave, Node: 0},
			{Step: 2, Kind: KindLeave, Node: 0},
			{Step: 3, Kind: KindJoin, Node: 0},
		}},
	}
	for i, s := range bad {
		if err := s.CheckBalanced(); err == nil {
			t.Fatalf("case %d: CheckBalanced accepted an unbalanced churn schedule: %+v", i, s)
		}
	}
	good := Schedule{Steps: 10, Directives: []Directive{
		{Step: 1, Kind: KindLeave, Node: 0},
		{Step: 5, Kind: KindJoin, Node: 0},
	}}
	if err := good.CheckBalanced(); err != nil {
		t.Fatalf("balanced churn schedule rejected: %v", err)
	}
}

// TestCheckBalancedRejectsOutOfRange: a schedule for N nodes names only
// nodes 0..N-1. The simulator would index past its tables on any other,
// and Netem would ignore it, so the two engines would disagree.
func TestCheckBalancedRejectsOutOfRange(t *testing.T) {
	bad := [][]Directive{
		{{Step: 1, Kind: KindLinkCut, From: 0, To: 3}, {Step: 2, Kind: KindLinkRestore, From: 0, To: 3}},
		{{Step: 1, Kind: KindLinkDup, From: -1, To: 1}, {Step: 2, Kind: KindLinkClear, From: -1, To: 1}},
		{{Step: 1, Kind: KindCrash, Node: 5}, {Step: 2, Kind: KindRestart, Node: 5}},
		{{Step: 1, Kind: KindLeave, Node: 3}, {Step: 2, Kind: KindJoin, Node: 3}},
		{{Step: 1, Kind: KindPartition, Groups: [][]int{{0, 1}, {3}}}, {Step: 2, Kind: KindHeal}},
	}
	for i, ds := range bad {
		s := Schedule{N: 3, Steps: 10, Directives: ds}
		if err := s.CheckBalanced(); err == nil {
			t.Errorf("case %d: CheckBalanced accepted a directive outside 3 nodes: %+v", i, ds)
		}
		// Without N there is no range to check, as there is no timeline
		// without Steps.
		if s.N = 0; s.CheckBalanced() != nil {
			t.Errorf("case %d: rejected without N", i)
		}
	}
}
