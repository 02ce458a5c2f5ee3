package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
)

const (
	// clusterSize is the node count of every workload's cluster.
	clusterSize = 3
	// clients is the number of generator goroutines, each with one
	// cluster.Client connection pinned to the node of the same index. The
	// sandbox has two vCPUs; more generators than cores would measure the
	// scheduler, not the store.
	clients = 2
	// openGoodWithin is the open-loop latency limit: an op that completes
	// later than this after its due time counts against goodput.
	openGoodWithin = 10 * time.Millisecond
)

// workload is one traffic mix and the cluster shape it runs on. The why
// strings are repeated in BENCHMARK.json and README.md.
type workload struct {
	name       string
	why        string
	shards     int
	durable    bool // journal every event through durable.Storage
	keys       int
	rounds     int  // preload writes per key
	zipf       bool // zipf s=1.1 over the keys, else uniform
	writeFrac  float64
	valueBytes int
	openRate   int // total ops/s on a fixed schedule; 0 is a closed loop
	sampleKeys int // keys the convergence check reads; 0 reads them all
	// gateOps is how many requests of the window the gated per-request
	// costs are measured over: about two thirds of what a 20 s window
	// completes on the host the benchmark was written on, so that a run
	// slowed by a neighbour still gets there.
	gateOps int
}

var workloads = []workload{
	{
		name:   "read-populated",
		why:    "1 shard, in-memory, 1024 keys zipf, 95% reads: store dominates, CheckDo digests the whole replica twice per read",
		shards: 1, keys: 1024, rounds: 8, zipf: true, writeFrac: 0.05, valueBytes: 16, sampleKeys: 32, gateOps: 5500,
	},
	{
		name:   "write-durable",
		why:    "4 shards, fsynced journals with group commit, 1024 keys uniform, 95% writes of 256 B: durable and the replication path dominate",
		shards: 4, durable: true, keys: 1024, rounds: 16, writeFrac: 0.95, valueBytes: 256, sampleKeys: 32, gateOps: 75000,
	},
	{
		name:   "mixed-small-closed",
		why:    "2 shards, in-memory, 64 keys uniform, 50/50, closed loop at saturation: cluster and wire are the whole of a write",
		shards: 2, keys: 64, rounds: 64, writeFrac: 0.5, valueBytes: 16, gateOps: 190000,
	},
	{
		name:   "mixed-small-open",
		why:    "same cluster and keys on a fixed 4000 ops/s schedule timed from the due time: latency and CPU at a load users run at",
		shards: 2, keys: 64, rounds: 64, writeFrac: 0.5, valueBytes: 16, openRate: 4000, gateOps: 72000,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// keyNames names the keys the way cmd/loadgen's -keys workload does, so the
// shard router places them as it would in a real run.
func keyNames(n int) []model.ObjectID {
	ks := make([]model.ObjectID, n)
	for i := range ks {
		ks[i] = model.ObjectID(fmt.Sprintf("k%06d", i))
	}
	return ks
}

// request is one generated operation.
type request struct {
	key   int // index into the workload's keys
	write bool
	value model.Value
}

func (q request) op() model.Operation {
	if q.write {
		return model.Write(q.value)
	}
	return model.Read()
}

// generator is one client's deterministic request stream: a pure function
// of (workload, seed, client), so two runs with one seed send the same
// requests in the same per-client order whatever the timing.
type generator struct {
	w      *workload
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf
	filler []byte // seeded bytes the values are cut from
	n      int    // requests generated so far
	buf    []byte
}

func newGenerator(w *workload, seed int64, client int) *generator {
	rng := rand.New(rand.NewSource(gen.SplitSeed(seed, client)))
	g := &generator{w: w, client: client, rng: rng}
	if w.zipf {
		g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.keys-1))
	}
	// The filler is drawn before any request so the request stream does not
	// depend on the value size.
	g.filler = make([]byte, 4096+w.valueBytes)
	for i := range g.filler {
		g.filler[i] = byte('a' + rng.Intn(26))
	}
	return g
}

// value returns a write value of the workload's size that no other write of
// the run carries: the client and a sequence number, padded from the filler.
func (g *generator) value(tag byte, seq int) model.Value {
	b := append(g.buf[:0], tag)
	b = strconv.AppendInt(b, int64(g.client), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, '.')
	if pad := g.w.valueBytes - len(b); pad > 0 {
		off := (seq * 31) % 4096
		b = append(b, g.filler[off:off+pad]...)
	}
	g.buf = b
	return model.Value(b)
}

func (g *generator) next() request {
	var r request
	if g.zipf != nil {
		r.key = int(g.zipf.Uint64())
	} else {
		r.key = g.rng.Intn(g.w.keys)
	}
	if g.rng.Float64() < g.w.writeFrac {
		r.write = true
		r.value = g.value('c', g.n)
	}
	g.n++
	return r
}

// openDue is when open-loop request k of a client is due, as an offset from
// the start of the phase: each client owns a schedule of period
// clients/rate, and the schedules are staggered evenly so the cluster sees
// one arrival every 1/rate.
func openDue(client, k, rate int) time.Duration {
	period := time.Duration(clients) * time.Second / time.Duration(rate)
	return time.Duration(client)*period/clients + time.Duration(k)*period
}
