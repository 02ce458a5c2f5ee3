package storetest

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/spec"
)

// Audit is cluster.AuditShards that fails t on a verdict the run owes, or on
// a shard whose causal verdict, owed or not, disagrees with the reference:
// BuildAudit + CheckCausal over the same histories.
func Audit(t testing.TB, shards int, fetch func(shard int) ([]cluster.History, error), types spec.Types) {
	t.Helper()
	fetched := make([][]cluster.History, shards)
	audits, err := cluster.AuditShards(shards, func(s int) ([]cluster.History, error) {
		h, err := fetch(s)
		fetched[s] = h
		return h, err
	}, types)
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range audits {
		ref, err := cluster.BuildAudit(fetched[s])
		if err != nil {
			t.Fatal(err)
		}
		if reference := consistency.CheckCausal(ref.Abstract, types); (a.Causal == nil) != (reference == nil) {
			t.Fatalf("shard %d: the audit says %v, the reference %v", s, a.Causal, reference)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
}
