package livecheck_test

import (
	"testing"

	"repro/internal/livecheck"
	"repro/internal/model"
)

// TestShardSetComposesVerdicts: per-shard traffic lands on per-shard
// checkers, counters sum, and the composite is clean only when every shard
// is. A clean exchange on shard 0 and a read-your-writes failure on shard 2
// must yield a dirty composite whose violation is attributed to shard 2
// alone.
func TestShardSetComposesVerdicts(t *testing.T) {
	s := livecheck.NewShardSet(2, 3, livecheck.Options{})
	if s.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", s.Shards())
	}

	// Shard 0: a clean write/replicate/read exchange.
	s.Observe(0, writeEv(0, "a", "v", model.Dot{Origin: 0, Seq: 1}, []uint64{1, 0}))
	s.Observe(0, sendEv(0, 1))
	s.Observe(0, recvEv(1, 0, 1))
	s.Observe(0, readEv(1, "a", model.ReadResponse([]model.Value{"v"}), []uint64{1, 0}))
	// Shard 1: untouched.
	// Shard 2: a write whose frontier omits the writer's own dot.
	s.Observe(2, writeEv(0, "c", "v", model.Dot{Origin: 0, Seq: 1}, []uint64{0, 0}))

	v := s.Verdict()
	if v.Clean {
		t.Fatal("composite verdict clean despite shard 2's violation")
	}
	if v.Events != 5 || v.Dos != 3 || v.Sends != 1 || v.Receives != 1 {
		t.Fatalf("summed counters wrong: %+v", v)
	}
	if v.Violations != 1 || v.First[0].Kind != livecheck.ReadYourWrites {
		t.Fatalf("composite violations = %d %v, want one read-your-writes", v.Violations, v.First)
	}

	per := []livecheck.Verdict{s.Shard(0).Verdict(), s.Shard(1).Verdict(), s.Shard(2).Verdict()}
	if !per[0].Clean || per[0].Events != 4 {
		t.Fatalf("shard 0 verdict = %+v, want clean with 4 events", per[0])
	}
	if !per[1].Clean || per[1].Events != 0 {
		t.Fatalf("shard 1 verdict = %+v, want clean and empty", per[1])
	}
	if per[2].Clean || per[2].Violations != 1 {
		t.Fatalf("shard 2 verdict = %+v, want the one violation", per[2])
	}

	if err := s.Err(); err == nil {
		t.Fatal("Err() = nil on a dirty set")
	}
	if err := s.Shard(0).Err(); err != nil {
		t.Fatalf("shard 0 Err() = %v, want nil", err)
	}
}

// TestShardSetErrLowestShardFirst: with violations on several shards, Err
// reports the lowest shard's — deterministic attribution for operators.
func TestShardSetErrLowestShardFirst(t *testing.T) {
	s := livecheck.NewShardSet(1, 3, livecheck.Options{})
	// Shard 2 goes dirty first in observation order, then shard 1.
	s.Observe(2, writeEv(0, "c", "v", model.Dot{Origin: 0, Seq: 1}, []uint64{0}))
	s.Observe(1, writeEv(0, "b", "v", model.Dot{Origin: 0, Seq: 1}, []uint64{0}))
	err := s.Err()
	if err == nil {
		t.Fatal("Err() = nil with two dirty shards")
	}
	if want := s.Shard(1).Err(); err.Error() != want.Error() {
		t.Fatalf("Err() = %v, want shard 1's %v", err, want)
	}
}

// TestShardSetDropsOutOfRange: events for unknown shards are dropped, not
// mis-attributed or panicking — and a shard count below 1 clamps to 1 so a
// single-shard tap still works.
func TestShardSetDropsOutOfRange(t *testing.T) {
	s := livecheck.NewShardSet(1, 2, livecheck.Options{})
	s.Observe(-1, sendEv(0, 1))
	s.Observe(2, sendEv(0, 1))
	if v := s.Verdict(); v.Events != 0 || !v.Clean {
		t.Fatalf("out-of-range events were counted: %+v", v)
	}

	one := livecheck.NewShardSet(1, 0, livecheck.Options{})
	if one.Shards() != 1 {
		t.Fatalf("shards=0 clamps to %d, want 1", one.Shards())
	}
	one.Observe(0, writeEv(0, "x", "v", model.Dot{Origin: 0, Seq: 1}, []uint64{1}))
	if v := one.Verdict(); v.Dos != 1 || !v.Clean {
		t.Fatalf("clamped set verdict = %+v", v)
	}
}
