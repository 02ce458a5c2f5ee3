package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// recordingTransport is plain TCP that records the bytes of every Write on
// the connections a node dials and on those it accepts.
type recordingTransport struct {
	mu     sync.Mutex
	writes [][]byte
}

func (rt *recordingTransport) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return loggedListener{ln, rt}, nil
}

func (rt *recordingTransport) Dial(_, _ model.ReplicaID, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return loggedConn{conn, rt}, nil
}

type loggedListener struct {
	net.Listener
	rt *recordingTransport
}

func (l loggedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggedConn{conn, l.rt}, nil
}

type loggedConn struct {
	net.Conn
	rt *recordingTransport
}

func (c loggedConn) Write(b []byte) (int, error) {
	c.rt.mu.Lock()
	c.rt.writes = append(c.rt.writes, slices.Clone(b))
	c.rt.mu.Unlock()
	return c.Conn.Write(b)
}

// TestEveryFrameIsOneWrite pins the premise fault.Netem shapes by: every
// frame a node writes is exactly one Write, header and payload together.
// The run drives each kind of conversation — replication with a
// compressed backlog, a quiescence question, a join that streams ranges,
// and a leave that gossips — and every Write it records must be one whole
// frame.
func TestEveryFrameIsOneWrite(t *testing.T) {
	rt := &recordingTransport{}
	recorded := func(cfg *Config) { cfg.Transport = rt }
	r0, r1 := bootNode(t, 0, 3, recorded), bootNode(t, 1, 3, recorded)
	// A backlog written before the link is up, longer than one batch frame
	// holds, leaves its first frame compressed: the frame is large and
	// repetitive, and it leaves part of the backlog behind.
	for i := 0; i < BatchMax+16; i++ {
		v := model.Value(fmt.Sprintf("%s-%d", strings.Repeat("backlog", 8), i))
		if _, err := r0.Do(model.ObjectID(fmt.Sprintf("b%d", i%4)), model.Write(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r0.Connect(map[model.ReplicaID]string{1: r1.Addr()}); err != nil {
		t.Fatal(err)
	}
	if err := r1.Connect(map[model.ReplicaID]string{0: r0.Addr()}); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("the backlog did not drain")
	}
	if _, err := r1.Do("x", model.Write("single")); err != nil {
		t.Fatal(err)
	}
	if !WaitQuiesced([]*Node{r0, r1}, 30*time.Second) {
		t.Fatal("the replicated write did not quiesce")
	}
	bootNode(t, 2, 3, func(cfg *Config) {
		recorded(cfg)
		cfg.Join = map[model.ReplicaID]string{0: r0.Addr()}
	})
	if err := r1.Leave(); err != nil {
		t.Fatal(err)
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	seen := map[uint64]bool{}
	for i, w := range rt.writes {
		size, h := binary.Uvarint(w)
		if h <= 0 || uint64(len(w)-h) != size {
			t.Fatalf("write %d of %d bytes is not one whole frame (header %d, declared payload %d)", i, len(w), h, size)
		}
		typ, _ := binary.Uvarint(w[h:])
		seen[typ] = true
		if typ == tCompressed {
			inner, _, err := decompressFrame(w[h:], 0)
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			typ, _ = binary.Uvarint(inner)
			seen[typ] = true
		}
	}
	for _, typ := range []uint64{tHello, tHelloAck, tBatch, tCompressed, tJoin, tDigest, tRangeResp, tGossip} {
		if !seen[typ] {
			t.Errorf("no frame of type %d among %d writes", typ, len(rt.writes))
		}
	}
}
