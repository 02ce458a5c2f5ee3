package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("1=127.0.0.1:7001,2=host:7002", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[1] != "127.0.0.1:7001" || peers[2] != "host:7002" {
		t.Fatalf("peers = %v", peers)
	}
	if got, _ := parsePeers("", 0); len(got) != 0 {
		t.Fatalf("empty spec parsed to %v", got)
	}
	for _, bad := range []string{"x", "a=h:1", "-1=h:1", "1=", "1=h:1,1=h:2"} {
		if _, err := parsePeers(bad, 0); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestParsePeersRejectsBadAddrs: a peer address with no host (":7001")
// re-advertised during a join points every receiver at itself, and one
// with no port cannot be dialed at all — both must fail at parse time,
// not as a runtime dial loop.
func TestParsePeersRejectsBadAddrs(t *testing.T) {
	for _, bad := range []string{"1=:7001", "1=host", "1=host:", "1=host:1:2", "1=127.0.0.1:7001,2=:7002"} {
		if peers, err := parsePeers(bad, 0); err == nil {
			t.Fatalf("%q accepted as %v", bad, peers)
		}
	}
}

// TestParsePeersRejectsTrailingGarbage: the old fmt.Sscanf parser stopped
// at the first non-digit, so "1x=h:7001" silently configured peer 1 — a
// typo'd cluster came up wired to the wrong replica.
func TestParsePeersRejectsTrailingGarbage(t *testing.T) {
	for _, bad := range []string{"1x=h:7001", "0 1=h:7001", "+1 =h:7001", "1.5=h:7001", "0x1=h:7001"} {
		if peers, err := parsePeers(bad, 9); err == nil {
			t.Fatalf("%q accepted as %v", bad, peers)
		}
	}
}

// TestParsePeersRejectsSelf: a peer entry naming the node's own -id would
// have the node dialing itself forever; it must fail at parse time.
func TestParsePeersRejectsSelf(t *testing.T) {
	if peers, err := parsePeers("1=h:7001,2=h:7002", 2); err == nil {
		t.Fatalf("self-peer accepted as %v", peers)
	}
	// The same spec is fine for a node with a different id.
	if _, err := parsePeers("1=h:7001,2=h:7002", 0); err != nil {
		t.Fatal(err)
	}
}

// TestParseTopology drives the combined -peers/-join validation: the join
// spec shares the peer syntax, requires an explicit -n, and an id may not
// appear in both maps.
func TestParseTopology(t *testing.T) {
	cases := []struct {
		name    string
		cfg     serveConfig
		wantErr string
	}{
		{"peers only", serveConfig{id: 0, peersSpec: "1=h:7001,2=h:7002"}, ""},
		{"join only", serveConfig{id: 3, n: 4, joinSpec: "0=h:7000,1=h:7001"}, ""},
		{"peers and disjoint join", serveConfig{id: 3, n: 4, peersSpec: "1=h:7001", joinSpec: "0=h:7000"}, ""},
		{"join without n", serveConfig{id: 3, joinSpec: "0=h:7000"}, "requires -n"},
		{"duplicate id across flags", serveConfig{id: 3, n: 4, peersSpec: "0=h:7000", joinSpec: "0=h:7000"}, "both -peers and -join"},
		{"join names self", serveConfig{id: 3, n: 4, joinSpec: "3=h:7003"}, "own id"},
		{"join empty host", serveConfig{id: 3, n: 4, joinSpec: "0=:7000"}, "no host"},
		{"join bad syntax", serveConfig{id: 3, n: 4, joinSpec: "zero"}, "want id=addr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peers, join, err := parseTopology(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if tc.cfg.joinSpec != "" && len(join) == 0 {
					t.Fatalf("join spec %q parsed to empty map", tc.cfg.joinSpec)
				}
				if tc.cfg.joinSpec == "" && join != nil {
					t.Fatalf("no join spec but join = %v", join)
				}
				if tc.cfg.peersSpec != "" && len(peers) == 0 {
					t.Fatalf("peer spec %q parsed to empty map", tc.cfg.peersSpec)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted as peers=%v join=%v, want error containing %q", peers, join, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

type unmarshalable struct{}

func (unmarshalable) MarshalJSON() ([]byte, error) { return nil, errors.New("boom") }

// TestWriteJSONMarshalFailure: the old handler encoded straight into the
// ResponseWriter, so a marshal failure arrived as an error message glued
// onto a 200 and a partial JSON body. Buffer-first must give a clean 500.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, unmarshalable{})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct == "application/json" {
		t.Fatal("failure response still claims application/json")
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("success path: status %d, content-type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

// TestAdminServerGracefulShutdown boots a single node with an admin
// endpoint, checks the endpoints serve, then shuts the server down the way
// run does on SIGINT — the listener must actually close.
func TestAdminServerGracefulShutdown(t *testing.T) {
	st, err := cli.OpenStore("causal", spec.MVRTypes(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ck := livecheck.NewShardSet(1, 1, livecheck.Options{
		Observed: []model.ReplicaID{0},
		Types:    spec.MVRTypes(),
	})
	node, err := cluster.NewNode(cluster.Config{
		ID: 0, N: 1, Store: st, Listen: "127.0.0.1:0",
		Tap: ck.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.Do(model.ObjectID("x"), model.Write(model.Value("v"))); err != nil {
		t.Fatal(err)
	}

	srv, err := startAdmin("127.0.0.1:0", node, ck)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr
	for _, path := range []string{"/healthz", "/metrics", "/membership", "/history", "/livecheck", "/debug/pprof/heap"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d body bytes", path, resp.StatusCode, len(body))
		}
	}

	// The live verdict reflects the tapped write, and its clean/dirty state
	// drives the HTTP status: a flagged violation turns the endpoint 503 so
	// a dumb probe can alert without parsing JSON.
	resp, err := http.Get(fmt.Sprintf("http://%s/livecheck", addr))
	if err != nil {
		t.Fatal(err)
	}
	var v livecheck.Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !v.Clean || v.Dos < 1 {
		t.Fatalf("live verdict = %+v, want clean with ≥1 do", v)
	}
	ck.Observe(0, livecheck.Event{ // fabricated regression: frontier falls
		Node: 0, Kind: model.ActDo, Object: "x", Op: model.Read(),
		Rval: model.ReadResponse(nil), Frontier: []uint64{0},
	})
	resp, err = http.Get(fmt.Sprintf("http://%s/livecheck", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dirty /livecheck status = %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("admin listener still accepting after Shutdown")
	}
}
