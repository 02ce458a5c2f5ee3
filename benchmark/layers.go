package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store/causal"
	"repro/internal/wire"
)

// This file holds the traced run's side measurements: timed loops over one
// layer's public entry points, away from the cluster, on inputs made from
// the seed.

// replicationPayloads returns n broadcast payloads as a causal replica
// mints them for this workload's writes.
func replicationPayloads(w *workload, seed int64, n int) [][]byte {
	g := newGenerator(w, seed, 0)
	keys := keyNames(w.keys)
	rep := causal.New(spec.MVRTypes()).NewReplica(0, clusterSize)
	payloads := make([][]byte, n)
	for i := range payloads {
		rep.Do(keys[g.rng.Intn(len(keys))], model.Write(g.value('w', i)))
		payloads[i] = append([]byte(nil), rep.PendingMessage()...)
		rep.OnSend()
	}
	return payloads
}

// sink keeps the timed loops' results alive.
var sink int64

// wireLayer times the replication codecs: batch framing, the event codec
// the journal and history transfers share, and frame compression.
func wireLayer(payloads [][]byte, reps int) (map[string]float64, error) {
	out := make(map[string]float64)
	n := float64(len(payloads) * reps)

	updates := cluster.NewBenchUpdates(payloads)
	var bytes int64
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		b, _ := updates.EncodeBatched(64)
		bytes += b
	}
	out["wire.batch_encode_ns_per_update"] = float64(time.Since(t0)) / n
	out["wire.batch_bytes_per_update"] = float64(bytes) / n

	events := make([]cluster.Event, len(payloads))
	for i, p := range payloads {
		events[i] = cluster.Event{Kind: model.ActSend, Lamport: uint64(2 * i), Origin: 0, Seq: uint64(i + 1), Payload: p}
	}
	enc := wire.NewWriter()
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		enc.Reset()
		for _, ev := range events {
			if err := cluster.AppendEventBinary(enc, ev); err != nil {
				return nil, err
			}
		}
	}
	out["wire.event_encode_ns"] = float64(time.Since(t0)) / n
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		r := wire.NewReader(enc.Bytes())
		for range events {
			ev, err := cluster.DecodeEventBinary(r)
			if err != nil {
				return nil, err
			}
			sink += int64(ev.Seq)
		}
	}
	out["wire.event_decode_ns"] = float64(time.Since(t0)) / n

	// Compression works on bulk frames, so it is fed the encoded events in
	// 64 KiB pieces, the size of a range-transfer chunk.
	raw := enc.Bytes()
	const piece = 64 << 10
	var comp [][]byte
	var lens []int
	cw := wire.NewWriter()
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		for off := 0; off < len(raw); off += piece {
			chunk := raw[off:min(off+piece, len(raw))]
			cw.Reset()
			wire.DeflateTo(cw, chunk)
			if i == 0 {
				comp = append(comp, append([]byte(nil), cw.Bytes()...))
				lens = append(lens, len(chunk))
			}
		}
	}
	mb := float64(len(raw)*reps) / 1e6
	out["wire.deflate_mb_s"] = mb / time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		for j, c := range comp {
			b, err := wire.Inflate(c, lens[j])
			if err != nil {
				return nil, err
			}
			sink += int64(len(b))
		}
	}
	out["wire.inflate_mb_s"] = mb / time.Since(t0).Seconds()
	return out, nil
}

// membershipLayer times what a shard does to its Merkle forest for every
// update it records, and the digest a joiner would ask for.
func membershipLayer(payloads [][]byte, appends int) (map[string]float64, error) {
	f := membership.NewForest(clusterSize)
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		if err := f.Append(0, uint64(i+1), payloads[i%len(payloads)]); err != nil {
			return nil, err
		}
	}
	appendNs := float64(time.Since(t0)) / float64(appends)
	const roots = 20
	t0 = time.Now()
	for i := 0; i < roots; i++ {
		h := f.Root(0)
		sink += int64(h[0])
	}
	return map[string]float64{
		"membership.forest_append_ns": appendNs,
		"membership.root_us":          us(int64(time.Since(t0))) / roots,
	}, nil
}

// auditLayer times the post-run audit on a side run of fixed shape — the
// small mixed workload on one shard, ops requests through the two clients —
// and requires the audit to pass: the histories must merge into a
// well-formed execution whose derived abstract execution is causally
// consistent.
func auditLayer(seed int64, ops int) (map[string]float64, error) {
	side := workloads[2]
	side.shards = 1
	r, err := setUp(&side, seed, "", 1, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for ci := 0; ci < clients; ci++ {
		g := newGenerator(&side, seed, ci)
		for i := 0; i < ops/clients; i++ {
			req := g.next()
			if _, err := r.clients[ci].Do(r.keys[req.key], req.op()); err != nil {
				return nil, fmt.Errorf("audit side run: %w", err)
			}
		}
	}
	if err := r.verify(seed); err != nil {
		return nil, err
	}
	hists := make([]cluster.History, len(r.nodes))
	for i, nd := range r.nodes {
		hists[i] = nd.History()
	}
	t0 := time.Now()
	audit, err := cluster.BuildAudit(hists)
	if err != nil {
		return nil, err
	}
	buildMs := ms(int64(time.Since(t0)))
	if err := audit.Exec.CheckWellFormed(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := consistency.CheckCausal(audit.Abstract, spec.MVRTypes()); err != nil {
		return nil, err
	}
	return map[string]float64{
		"audit.build_audit_ms":  buildMs,
		"audit.check_causal_ms": ms(int64(time.Since(t0))),
	}, nil
}

// nodeDo times in-process Node.Do calls at node 0 on the generator's next
// requests: the serving path without codec, socket or client. It stops at
// calls requests or after budget, whichever comes first.
func (r *rig) nodeDo(g *generator, calls int, budget time.Duration) (p50 int64, err error) {
	var lats []int64
	deadline := time.Now().Add(budget)
	for i := 0; i < calls && time.Now().Before(deadline); i++ {
		req := g.next()
		t0 := time.Now()
		if _, err := r.nodes[0].Do(r.keys[req.key], req.op()); err != nil {
			return 0, err
		}
		lats = append(lats, int64(time.Since(t0)))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return percentile(lats, 0.50), nil
}
