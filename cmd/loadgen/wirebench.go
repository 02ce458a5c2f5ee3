package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// wirebenchWorkload drives one replica with a seeded write-heavy mix and
// captures what the node would persist and transmit: the recorded event
// sequence (journal input) and the broadcast payloads (transport input).
// Pure function of (store, ops, seed) — no clocks, no network.
func wirebenchWorkload(st store.Store, ops int, objects int, seed int64) (payloads [][]byte, events []cluster.Event) {
	rng := rand.New(rand.NewSource(gen.SplitSeed(seed, 0)))
	rep := st.NewReplica(0, 3)
	lamport := uint64(0)
	seq := uint64(0)
	for i := 0; i < ops; i++ {
		obj := model.ObjectID(fmt.Sprintf("x%d", rng.Intn(objects)))
		op := model.Write(model.Value(fmt.Sprintf("c0.v%d", i)))
		resp := rep.Do(obj, op)
		lamport++
		events = append(events, cluster.Event{
			Kind: model.ActDo, Lamport: lamport, Object: obj, Op: op, Rval: resp,
		})
		for {
			p := rep.PendingMessage()
			if p == nil {
				break
			}
			payload := append([]byte(nil), p...)
			rep.OnSend()
			seq++
			lamport++
			events = append(events, cluster.Event{
				Kind: model.ActSend, Lamport: lamport,
				Origin: 0, Seq: seq, Payload: payload,
			})
			payloads = append(payloads, payload)
		}
	}
	return payloads, events
}

// journalBench journals the event sequence to a throwaway durable log as a
// shard does (cluster.StageJournal: the records its log holds, one commit
// per operation) and returns total on-disk bytes and allocations per event.
// The sequence is shorter than a seal interval, so wal.log holds every
// record.
func journalBench(events []cluster.Event) (diskBytes int64, allocsPerOp float64, err error) {
	measure := func(dir string) (int64, error) {
		l, _, err := durable.Open(dir, durable.Meta{Node: 0, N: 3, Store: "bench"},
			durable.Options{NoSync: true})
		if err != nil {
			return 0, err
		}
		if err := cluster.StageJournal(events, l); err != nil {
			l.Close()
			return 0, err
		}
		if err := l.Close(); err != nil {
			return 0, err
		}
		info, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			return 0, err
		}
		return info.Size(), nil
	}

	dir, err := os.MkdirTemp("", "wirebench-journal-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	diskBytes, err = measure(filepath.Join(dir, "size"))
	if err != nil {
		return 0, 0, err
	}
	// Allocations: one full append pass per run, averaged, normalized per
	// event.
	runs := 0
	total := testing.AllocsPerRun(3, func() {
		sub := filepath.Join(dir, fmt.Sprintf("allocs%d", runs))
		runs++
		if _, err := measure(sub); err != nil {
			panic(err)
		}
	})
	// Subtract nothing: the per-op figure includes Open/Close's small fixed
	// cost.
	allocsPerOp = total / float64(len(events))
	return diskBytes, allocsPerOp, nil
}

// runWirebench emits the deterministic wire-cost table — the rows behind
// the tracked BENCH_WIRE.json.
func runWirebench(w io.Writer, cfg benchArgs) error {
	if cfg.ops < 1 || cfg.objects < 1 {
		return fmt.Errorf("wirebench needs at least one op and one object")
	}
	st, err := cli.OpenStore(cfg.store, spec.MVRTypes(), store.Options{})
	if err != nil {
		return err
	}
	out := cli.Output(w, cfg.jsonOut)

	payloads, events := wirebenchWorkload(st, cfg.ops, cfg.objects, cfg.seed)
	if len(payloads) == 0 {
		return fmt.Errorf("workload produced no broadcast payloads")
	}
	us := cluster.NewBenchUpdates(payloads)
	nOps := float64(len(payloads))

	// Updates: the replication send path (pooled writer, tBatch coalescing).
	bBytes, bFrames := us.EncodeBatched(cluster.BatchMax)
	bAllocs := testing.AllocsPerRun(10, func() { us.EncodeBatched(cluster.BatchMax) }) / nOps

	// Bulk transfers: anti-entropy range chunks and the history download
	// frame, as encoded versus as sent, wrapped in the compression envelope.
	// Same chunking either way — the envelope is the only delta.
	rBytes, rFrames := us.EncodeRange(false)
	rAllocs := testing.AllocsPerRun(10, func() { us.EncodeRange(false) }) / nOps
	rcBytes, rcFrames := us.EncodeRange(true)
	us.EncodeRange(true) // warm the flate pools before counting
	rcAllocs := testing.AllocsPerRun(10, func() { us.EncodeRange(true) }) / nOps
	hBytes, err := cluster.EncodeHistoryFrame(events, false)
	if err != nil {
		return err
	}
	hcBytes, err := cluster.EncodeHistoryFrame(events, true)
	if err != nil {
		return err
	}
	nEv := float64(len(events))
	hAllocs := testing.AllocsPerRun(10, func() { cluster.EncodeHistoryFrame(events, false) }) / nEv
	hcAllocs := testing.AllocsPerRun(10, func() { cluster.EncodeHistoryFrame(events, true) }) / nEv

	// Journal: the same recorded events on disk.
	jBinBytes, jBinAllocs, err := journalBench(events)
	if err != nil {
		return err
	}

	round := func(x float64) float64 { return math.Round(x*10) / 10 }
	t := bench.NewTable(
		fmt.Sprintf("loadgen wirebench: %s, seed %d, %d updates, batch %d", st.Name(), cfg.seed, len(payloads), cluster.BatchMax),
		"path", "codec", "batch", "ops", "frames", "bytes/op", "allocs/op")
	t.AddRow("updates", "binary", cluster.BatchMax, len(payloads), bFrames, round(float64(bBytes)/nOps), round(bAllocs))
	t.AddRow("range", "binary", cluster.BatchMax, len(payloads), rFrames, round(float64(rBytes)/nOps), round(rAllocs))
	t.AddRow("range", "binary+flate", cluster.BatchMax, len(payloads), rcFrames, round(float64(rcBytes)/nOps), round(rcAllocs))
	t.AddRow("history", "binary", 1, len(events), int64(1), round(float64(hBytes)/nEv), round(hAllocs))
	t.AddRow("history", "binary+flate", 1, len(events), int64(1), round(float64(hcBytes)/nEv), round(hcAllocs))
	t.AddRow("journal", "binary", 1, len(events), int64(len(events)), round(float64(jBinBytes)/float64(len(events))), round(jBinAllocs))
	return out.Emit(t)
}
