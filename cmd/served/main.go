// Command served runs one replica of a TCP-backed store cluster
// (internal/cluster). Peers replicate to each other over the listen
// address; clients (cmd/loadgen, or anything speaking the cluster
// protocol) connect to the same address. An optional admin HTTP endpoint
// serves health, metrics, and the node's recorded history for offline
// auditing.
//
// Usage (3-node cluster on one machine):
//
//	served -store causal -id 0 -listen 127.0.0.1:7000 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002 &
//	served -store causal -id 1 -listen 127.0.0.1:7001 -peers 0=127.0.0.1:7000,2=127.0.0.1:7002 &
//	served -store causal -id 2 -listen 127.0.0.1:7002 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001 &
//
// Peer addresses must carry an explicit host: they are re-advertised to
// other members during joins, where a bare ":7001" would point each
// receiver at itself.
//
// With -data-dir the node journals every recorded event to an fsync'd
// on-disk log (internal/durable) before acknowledging it, and restores
// its history from that directory on boot — so the process can be
// kill -9'd and restarted in place without losing acknowledged state.
//
// A node can also join a running cluster dynamically instead of being
// named in every peer list at boot:
//
//	served -store causal -id 3 -n 4 -listen 127.0.0.1:7003 -join 0=127.0.0.1:7000
//
// The joiner announces itself to the seed, adopts the cluster's
// membership view, catches up on missing history via anti-entropy over
// the durable log (per shard it sends one digest, and the seed streams
// back only the ranges that digest shows it lacks), and then enters
// normal replication. -join requires -n, since the seeds are not the
// whole population.
//
// The cluster size is 1+len(peers) unless -n says otherwise. Shutdown is
// graceful on SIGINT/SIGTERM.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/livecheck"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

func main() {
	var cfg serveConfig
	storeName := cli.StoreFlag(flag.CommandLine, "causal")
	flag.IntVar(&cfg.id, "id", 0, "this node's replica ID (0-based)")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:7000", "replication+client listen address")
	flag.StringVar(&cfg.peersSpec, "peers", "", "peer replicas as id=addr pairs, comma-separated (e.g. 1=127.0.0.1:7001,2=127.0.0.1:7002)")
	flag.IntVar(&cfg.n, "n", 0, "cluster size (default 1+len(peers); required with -join)")
	flag.StringVar(&cfg.admin, "admin", "", "admin HTTP listen address serving /healthz, /metrics, /membership, /history, /livecheck, /debug/pprof/ (disabled if empty)")
	flag.IntVar(&cfg.k, "k", 2, "K for the kbuffer store")
	flag.IntVar(&cfg.shards, "shards", 1, "independent keyspace shards inside this node, each run one turn at a time; all nodes must agree")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "directory for the durable event journal (journaling disabled if empty)")
	flag.StringVar(&cfg.joinSpec, "join", "", "join a running cluster through these seed nodes (id=addr pairs like -peers; requires -n)")
	flag.Parse()
	cfg.store = *storeName

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

// serveConfig carries the parsed command line into run.
type serveConfig struct {
	store     string
	id        int
	listen    string
	peersSpec string
	n         int
	admin     string
	k         int
	shards    int
	dataDir   string
	joinSpec  string
}

// checkPeerAddr rejects peer addresses a membership exchange could not
// re-advertise: no port, or an empty host like ":7001", which every
// receiver would resolve to itself.
func checkPeerAddr(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad address %q: %v", addr, err)
	}
	if host == "" {
		return fmt.Errorf("address %q has no host (a bare port is ambiguous once re-advertised to other members)", addr)
	}
	if port == "" {
		return fmt.Errorf("address %q has no port", addr)
	}
	return nil
}

// parsePeers parses "1=127.0.0.1:7001,2=host:7002" into a peer address map.
// self is this node's own replica ID: a peer entry claiming it is a
// configuration error caught here, not a dial loop discovered at runtime.
func parsePeers(spec string, self int) (map[model.ReplicaID]string, error) {
	peers := make(map[model.ReplicaID]string)
	if spec == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", part)
		}
		rid, err := strconv.Atoi(id)
		if err != nil || rid < 0 {
			return nil, fmt.Errorf("bad peer id %q", id)
		}
		if rid == self {
			return nil, fmt.Errorf("peer %q names this node's own id %d", part, self)
		}
		if err := checkPeerAddr(addr); err != nil {
			return nil, err
		}
		if _, dup := peers[model.ReplicaID(rid)]; dup {
			return nil, fmt.Errorf("duplicate peer id %d", rid)
		}
		peers[model.ReplicaID(rid)] = addr
	}
	return peers, nil
}

// parseTopology validates the -peers and -join flags together: both use the
// same id=addr syntax, and an id may appear in at most one of them — a node
// that is both a static peer and a join seed would be dialed twice under
// two different link-setup protocols.
func parseTopology(cfg serveConfig) (peers, join map[model.ReplicaID]string, err error) {
	peers, err = parsePeers(cfg.peersSpec, cfg.id)
	if err != nil {
		return nil, nil, err
	}
	if cfg.joinSpec == "" {
		return peers, nil, nil
	}
	join, err = parsePeers(cfg.joinSpec, cfg.id)
	if err != nil {
		return nil, nil, fmt.Errorf("-join: %w", err)
	}
	if len(join) == 0 {
		return nil, nil, fmt.Errorf("-join: no seed nodes")
	}
	if cfg.n == 0 {
		return nil, nil, fmt.Errorf("-join requires -n: the seed list is not the whole cluster")
	}
	for rid := range join {
		if _, dup := peers[rid]; dup {
			return nil, nil, fmt.Errorf("node %d appears in both -peers and -join", rid)
		}
	}
	return peers, join, nil
}

func run(cfg serveConfig) error {
	peers, join, err := parseTopology(cfg)
	if err != nil {
		return err
	}
	n := cfg.n
	if n == 0 {
		n = 1 + len(peers)
	}
	st, err := cli.OpenStore(cfg.store, spec.MVRTypes(), store.Options{K: cfg.k})
	if err != nil {
		return err
	}

	if cfg.shards < 1 {
		return fmt.Errorf("-shards %d: need at least 1", cfg.shards)
	}
	// Node-local streaming checkers, one per shard: each observes only this
	// node's own event stream for its shard (peers' mints arrive as
	// watermarks), so it enforces the session guarantees — frontier
	// monotonicity, read-your-writes, own-dot integrity — live, without any
	// cross-node coordination. They hold per shard: no key spans shards, but
	// the node's order across its shards is not recorded, so the set's
	// verdict covers each shard's part of the node's session, not the whole
	// session. Full causal/rval verdicts come from the /history downloads
	// through cluster.AuditShards, run per shard, with the same limit.
	ck := livecheck.NewShardSet(n, cfg.shards, livecheck.Options{
		Observed: []model.ReplicaID{model.ReplicaID(cfg.id)},
		Types:    spec.MVRTypes(),
	})
	ncfg := cluster.Config{
		ID:     model.ReplicaID(cfg.id),
		N:      n,
		Store:  st,
		Listen: cfg.listen,
		Peers:  peers,
		Join:   join,
		Shards: cfg.shards,
		Tap:    ck.Observe,
	}
	if cfg.dataDir != "" {
		// Each shard journals to its own fsync'd log (data-dir itself when
		// unsharded, or data-dir/shard-NNN/ per shard), opened by the node via
		// the storage hook so recovery and journaling follow each shard's
		// turns. Sharded logs share one group-commit coordinator: concurrent
		// commits across shards ride a single fsync round, and acked ⇒
		// on-disk still holds per shard.
		ncfg.Storage = &shardStorage{dir: cfg.dataDir, group: durable.NewGroupCommitter()}
	}
	node, err := cluster.NewNode(ncfg)
	if err != nil {
		return err
	}
	defer node.Close()
	if cfg.dataDir != "" {
		fmt.Printf("served: r%d journaling to %s (restored %d events)\n", cfg.id, cfg.dataDir, node.Restored())
	}

	peerIDs := make([]int, 0, len(peers))
	for pid := range peers {
		peerIDs = append(peerIDs, int(pid))
	}
	sort.Ints(peerIDs)
	fmt.Printf("served: r%d (%s, cluster of %d) listening on %s, peers %v\n",
		cfg.id, st.Name(), n, node.Addr(), peerIDs)

	var adminSrv *http.Server
	if cfg.admin != "" {
		adminSrv, err = startAdmin(cfg.admin, node, ck)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var stopped error
	select {
	case s := <-sig:
		fmt.Printf("served: r%d shutting down on %v\n", cfg.id, s)
	case <-node.Done():
		// The node fail-stopped (a journal failure, a lost history): its
		// error says why and what the operator should do.
		stopped = fmt.Errorf("r%d stopped: %w", cfg.id, node.Err())
	}
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := adminSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "served: admin shutdown:", err)
		}
	}
	return stopped
}

// shardStorage implements cluster.JournalStorage over the served data-dir
// layout: the directory itself holds the single-shard log, and a sharded
// node nests shard-NNN/ subdirectories, one log per shard, all sharing the
// group-commit fsync coordinator.
type shardStorage struct {
	dir   string
	group *durable.GroupCommitter
}

func (s *shardStorage) OpenJournal(id model.ReplicaID, n int, storeName string, shard, shards int) (cluster.Journal, *cluster.History, error) {
	dir := s.dir
	var opts durable.Options
	if shards > 1 {
		dir = filepath.Join(s.dir, fmt.Sprintf("shard-%03d", shard))
		opts.Group = s.group
	}
	l, hist, err := durable.Open(dir, durable.Meta{Node: id, N: n, Store: storeName, Shard: shard, Shards: shards}, opts)
	if err != nil {
		return nil, nil, err
	}
	return l, hist, nil
}

// Open is cluster.NodeStorage's per-event journal, which the node does not
// use: it opens staged journals through OpenJournal.
func (s *shardStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(cluster.Event) error, *cluster.History, *membership.Forest, func() error, error) {
	j, hist, err := s.OpenJournal(id, n, storeName, shard, shards)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	l := j.(*durable.Log)
	return l.Append, hist, nil, l.Close, nil
}

// writeJSON marshals v to a buffer before touching the ResponseWriter, so a
// marshal failure becomes a clean 500 instead of an error trailer glued to
// a 200 and half a body.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with an explicit status code, for endpoints
// whose status carries the verdict (/livecheck: 503 once dirty).
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// startAdmin exposes the node over plain HTTP for operators and offline
// audits: /healthz (200 once serving), /metrics (the Stats snapshot),
// /membership (the node's view of who is in the cluster), /history
// (the recorded local history, ready for cluster.AuditShards; ?shard=N
// selects one shard of a sharded node, default 0), and /livecheck (the
// streaming checkers' composed verdict — 200 while clean, 503 once a
// session-guarantee violation has been flagged, so a probe can alert
// without parsing the body; ?shard=N narrows to one shard), and
// /debug/pprof/ (the Go runtime's profiles: /debug/pprof/heap,
// /debug/pprof/profile?seconds=N, and the rest its index lists). The
// returned server is already serving; the caller owns its Shutdown.
func startAdmin(addr string, node *cluster.Node, ck *livecheck.ShardSet) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok r%d quiesced=%v\n", node.ID(), node.Quiesced())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, node.Stats())
	})
	mux.HandleFunc("/membership", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, node.Membership())
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		shard := 0
		if s := r.URL.Query().Get("shard"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad shard", http.StatusBadRequest)
				return
			}
			shard = v
		}
		h, err := node.ShardHistory(shard)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/livecheck", func(w http.ResponseWriter, r *http.Request) {
		var v livecheck.Verdict
		if s := r.URL.Query().Get("shard"); s != "" {
			i, err := strconv.Atoi(s)
			if err != nil || i < 0 || i >= ck.Shards() {
				http.Error(w, "bad shard", http.StatusBadRequest)
				return
			}
			v = ck.Shard(i).Verdict()
		} else {
			v = ck.Verdict()
		}
		code := http.StatusOK
		if !v.Clean {
			code = http.StatusServiceUnavailable
		}
		writeJSONStatus(w, code, v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "served: admin:", err)
		}
	}()
	return srv, nil
}
