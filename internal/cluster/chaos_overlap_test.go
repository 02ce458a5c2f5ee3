package cluster

import (
	"testing"

	"repro/internal/fault"
)

// TestGenerateOverlappingCrashWindowsOccur pins that multi-victim configs
// really do produce overlapping downtime (the schedule family the
// supervisor test covers is reachable from Generate, not just hand-built),
// and that every such schedule still checks balanced.
func TestGenerateOverlappingCrashWindowsOccur(t *testing.T) {
	overlapped := false
	for seed := int64(1); seed <= 50; seed++ {
		sched := fault.Generate(fault.Config{Seed: seed, N: 3, Steps: 80, Crashes: 2})
		if err := sched.CheckBalanced(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		down := map[int]bool{}
		for _, d := range sched.Directives {
			switch d.Kind {
			case fault.KindCrash:
				down[d.Node] = true
				if len(down) > 1 {
					overlapped = true
				}
			case fault.KindRestart:
				delete(down, d.Node)
			}
		}
	}
	if !overlapped {
		t.Fatal("no seed in 1..50 produced overlapping crash windows")
	}
}
