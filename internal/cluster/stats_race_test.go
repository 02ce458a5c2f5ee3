package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// TestStatsCoherentSnapshot is the regression for the torn Stats read: the
// op counter used to advance in the caller's goroutine (inside Do) while
// the event append happened later in the shard's step, so a concurrent
// Stats call could observe an op whose event did not exist yet. Stats now
// captures each shard in one turn, and for a node that never restored a
// prior history the ledger must balance exactly: every recorded event is an
// op, a send, or a receive. Run under -race this also proves Stats takes no
// unsynchronized reads of what only a turn may touch.
func TestStatsCoherentSnapshot(t *testing.T) {
	nodes := startCluster(t, "causal", 2)
	nd := nodes[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := model.Value(fmt.Sprintf("s%d.%d", w, i))
				if _, err := nd.Do("x", model.Write(v)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Writes at the peer too, so the polled node's receive path is live
	// while snapshots are taken.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := model.Value(fmt.Sprintf("p%d", i))
			if _, err := nodes[1].Do("y", model.Write(v)); err != nil {
				t.Errorf("peer writer: %v", err)
				return
			}
		}
	}()

	deadline := time.Now().Add(250 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		st := nd.Stats()
		if st.Events != st.Ops+st.Sends+st.Receives {
			close(stop)
			t.Fatalf("torn snapshot: events=%d != ops=%d + sends=%d + receives=%d",
				st.Events, st.Ops, st.Sends, st.Receives)
		}
		snapshots++
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}

	// Quiesced ledger still balances, and closed nodes degrade to the
	// counter-only snapshot instead of erroring or racing.
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("did not quiesce")
	}
	st := nd.Stats()
	if st.Events != st.Ops+st.Sends+st.Receives {
		t.Fatalf("torn quiesced snapshot: %+v", st)
	}
	nd.Close()
	closed := nd.Stats()
	if closed.Ops != st.Ops || closed.Events != 0 {
		t.Fatalf("closed-node snapshot: ops=%d (want %d), events=%d (want 0)",
			closed.Ops, st.Ops, closed.Events)
	}
}
