package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// TestPollQuiescedWaitsOnlyAfterDirtySweeps scripts the sweeps false, true,
// false, true, true: the poll ends on the fifth, a clean sweep is followed
// by the next with no wait, and each dirty one by one wait of at most the
// 10 ms interval.
func TestPollQuiescedWaitsOnlyAfterDirtySweeps(t *testing.T) {
	sweeps := []bool{false, true, false, true, true}
	n := 0
	var waitedAfter []int // the sweep each wait followed
	sweep := func() (bool, error) { n++; return sweeps[n-1], nil }
	wait := func(d time.Duration) {
		if d <= 0 || d > 10*time.Millisecond {
			t.Errorf("after sweep %d: a wait of %v, want one in (0, 10ms]", n, d)
		}
		waitedAfter = append(waitedAfter, n)
	}
	if err := pollQuiesced(sweep, wait, 10*time.Second); err != nil || n != len(sweeps) {
		t.Fatalf("pollQuiesced returned %v after %d sweeps, want nil after %d", err, n, len(sweeps))
	}
	if want := []int{1, 3}; !slices.Equal(waitedAfter, want) {
		t.Fatalf("waited after sweeps %v, want after %v (the dirty ones) only", waitedAfter, want)
	}

	// A poller that cannot see answers arrive sleeps out the interval after
	// each dirty sweep.
	n = 0
	start := time.Now()
	if err := PollQuiesced(sweep, 10*time.Second); err != nil || n != len(sweeps) {
		t.Fatalf("PollQuiesced returned %v after %d sweeps, want nil after %d", err, n, len(sweeps))
	}
	if total := time.Since(start); total < 20*time.Millisecond {
		t.Errorf("two dirty sweeps and three clean ones took %v, want the two 10 ms waits", total)
	}
}

// TestWaitQuiescedWithinARoundTrip: after the last delivery WaitQuiesced
// costs a sweep, the answers to its questions and two clean sweeps — well
// under the two 10 ms sleeps a poll that slept after every sweep needed. The
// median of five rounds is held to 10 ms.
func TestWaitQuiescedWithinARoundTrip(t *testing.T) {
	nodes := startCluster(t, "causal", 3)
	write := func(round int) {
		for i, nd := range nodes {
			if _, err := nd.Do(model.ObjectID(fmt.Sprintf("k%d", i)), model.Write(model.Value(fmt.Sprintf("v%d", round)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0)
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the cluster never quiesced after the first round")
	}
	var took []time.Duration
	for round := 1; round <= 5; round++ {
		write(round)
		want := int64(round+1) * int64(len(nodes)-1)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			delivered := true
			for _, nd := range nodes {
				delivered = delivered && nd.shards[0].receives.Load() == want
			}
			if delivered {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d was not delivered everywhere", round)
			}
		}
		start := time.Now()
		if !WaitQuiesced(nodes, 30*time.Second) {
			t.Fatalf("round %d never quiesced", round)
		}
		took = append(took, time.Since(start))
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med >= 10*time.Millisecond {
		t.Fatalf("WaitQuiesced took %v after the last delivery (sorted: %v), want a median under 10 ms", med, took)
	}
}

// TestDownPeerBoundsTheWait: a link whose peer is gone never answers, so the
// wait after the sweep that asked it ends when the 10 ms interval does, and
// WaitQuiesced times out on schedule instead of hanging on the answer.
func TestDownPeerBoundsTheWait(t *testing.T) {
	nodes := meshOf(t, 2, func(int) NodeStorage { return nil })
	r0, r1 := nodes[0], nodes[1]
	if !WaitQuiesced(nodes, 30*time.Second) {
		t.Fatal("the pair never quiesced")
	}
	r1.Close()
	if _, err := r0.Do("x", model.Write("unheard")); err != nil {
		t.Fatal(err)
	}
	if sweepQuiesced([]*Node{r0}) || !r0.allPeers()[0].questioned() {
		t.Fatal("a sweep over r0 read quiesced or left its one link unasked, want it dirty and asking")
	}
	start := time.Now()
	awaitAnswers([]*Node{r0}, 10*time.Millisecond)
	if waited := time.Since(start); waited < 10*time.Millisecond || waited > time.Second {
		t.Fatalf("the wait on a down peer's answer took %v, want the 10 ms interval", waited)
	}
	start = time.Now()
	if WaitQuiesced([]*Node{r0}, 200*time.Millisecond) {
		t.Fatal("r0 quiesced with an update its only peer never received")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("WaitQuiesced with a 200 ms timeout returned after %v", waited)
	}
}

// BenchmarkQuiesce times WaitQuiesced on a three-node cluster after one
// write at every node has been delivered everywhere: ms/quiesce is the cost
// of detecting quiescence, which every settle of a run pays.
func BenchmarkQuiesce(b *testing.B) {
	nodes, err := BootMesh(3, func(i int) Config {
		return Config{Store: openCausal(b), Listen: "127.0.0.1:0"}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	var took time.Duration
	for i := 0; i < b.N; i++ {
		for _, nd := range nodes {
			if _, err := nd.Do(model.ObjectID(fmt.Sprintf("k%d", nd.ID())), model.Write(benchValue)); err != nil {
				b.Fatal(err)
			}
		}
		want := int64(i+1) * int64(len(nodes)-1)
		for _, nd := range nodes {
			for nd.shards[0].receives.Load() < want {
				time.Sleep(10 * time.Microsecond)
			}
		}
		start := time.Now()
		if !WaitQuiesced(nodes, 30*time.Second) {
			b.Fatal("the cluster never quiesced")
		}
		took += time.Since(start)
	}
	b.ReportMetric(float64(took.Microseconds())/1e3/float64(b.N), "ms/quiesce")
}

// BenchmarkSettleBacklog times WaitQuiesced on a fresh three-node cluster
// after 10 000 writes of 256 B at every node, made without waiting for
// delivery: the settle after a burst, backlog and all. Each iteration is one
// round; settle-ms-p50 and settle-ms-max are over the rounds, so run it with
// -benchtime 25x to see the rare slow round.
func BenchmarkSettleBacklog(b *testing.B) {
	const writes = 10000
	value := model.Value(strings.Repeat("v", 256))
	keys := make([]model.ObjectID, 1024)
	for i := range keys {
		keys[i] = model.ObjectID(fmt.Sprintf("k%04d", i))
	}
	var took []time.Duration
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		nodes, err := BootMesh(3, func(int) Config {
			return Config{Store: openCausal(b), Listen: "127.0.0.1:0"}
		})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for w := 0; w < writes; w++ {
					if _, err := nd.Do(keys[w%len(keys)], model.Write(value)); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StartTimer()
		start := time.Now()
		if !WaitQuiesced(nodes, time.Minute) {
			b.Fatal("the cluster never quiesced")
		}
		took = append(took, time.Since(start))
		b.StopTimer()
		for _, nd := range nodes {
			nd.Close()
		}
	}
	slices.Sort(took)
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	b.ReportMetric(ms(took[len(took)/2]), "settle-ms-p50")
	b.ReportMetric(ms(took[len(took)-1]), "settle-ms-max")
}
