package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/spec"
	"repro/internal/store"
)

// syncbenchPrefixes are the joiner states measured, as percentages of the
// donor log: a cold join, three partial rejoins, and an already-caught-up
// digest-only handshake.
var syncbenchPrefixes = []int{0, 25, 50, 90, 100}

// runSyncbench emits the anti-entropy cost table behind the tracked
// BENCH_SYNC.json: for each joiner prefix, the digest handshake bytes, the
// updates and chunks actually pulled, and the bytes on the wire versus
// shipping the full log through the same chunking (cluster.BatchMax). Pure
// function of (store, ops, seed) — the workload generator and the frame
// appenders are the ones the real join path uses, with no sockets or timers
// involved.
func runSyncbench(w io.Writer, cfg benchArgs) error {
	if cfg.ops < 1 || cfg.objects < 1 {
		return fmt.Errorf("syncbench needs at least one op and one object")
	}
	st, err := cli.OpenStore(cfg.store, spec.MVRTypes(), store.Options{})
	if err != nil {
		return err
	}
	payloads, _ := wirebenchWorkload(st, cfg.ops, cfg.objects, cfg.seed)
	if len(payloads) == 0 {
		return fmt.Errorf("workload produced no broadcast payloads")
	}

	t := bench.NewTable(
		fmt.Sprintf("loadgen syncbench: %s, seed %d, %d updates, batch %d",
			st.Name(), cfg.seed, len(payloads), cluster.BatchMax),
		"prefix %", "have", "pulled", "chunks", "digest B", "pull B", "full B", "saved %")
	for _, pc := range syncbenchPrefixes {
		row := cluster.SyncCost(payloads, len(payloads)*pc/100)
		saved := int64(0)
		if row.FullBytes > 0 {
			saved = 100 - row.PulledBytes*100/row.FullBytes
		}
		t.AddRow(pc, row.Prefix, row.Pulled, row.Chunks, row.DigestBytes, row.PulledBytes, row.FullBytes, saved)
	}
	return cli.Output(w, cfg.jsonOut).Emit(t)
}
