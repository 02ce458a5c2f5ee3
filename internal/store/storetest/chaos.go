package storetest

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

// runChaos is the fault-schedule battery: every converging store must ride
// out a seeded schedule of partitions, crash/restart windows, and link
// faults — none of which lose messages — and still converge after
// quiescence (Lemma 3 under Definition 3 delivery). A second subtest layers
// genuine loss on top and checks the verdict matches the store's declared
// loss behavior: ErrLossyRun for ordinary stores, convergence for those
// whose store.Conformance declares ConvergesUnderLoss.
func runChaos(t *testing.T, factory func() store.Store) {
	objs := []model.ObjectID{"obj0", "obj1", "obj2"}
	schedule := func(seed int64) fault.Schedule {
		return fault.Generate(fault.Config{
			Seed: seed, N: 3, Steps: 150,
			Partitions: 2, Crashes: 1, LinkFaults: 3,
		})
	}

	t.Run("ChaosScheduleConverges", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			c := sim.NewCluster(factory(), 3, seed)
			sched := schedule(seed)
			if p, cr, lf := sched.Counts(); p < 2 || cr < 1 || lf < 3 {
				t.Fatalf("seed %d: degenerate schedule: %d partitions, %d crashes, %d link faults", seed, p, cr, lf)
			}
			c.RunScheduled(sched, sim.WorkloadConfig{Objects: objs, Steps: 150})
			c.Quiesce()
			surface(c, objs)
			if err := c.CheckConverged(objs); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})

	t.Run("ChaosLossyRun", func(t *testing.T) {
		c := sim.NewCluster(factory(), 3, 9)
		c.SetFaults(sim.Faults{DropProb: 0.3})
		c.RunScheduled(schedule(9), sim.WorkloadConfig{Objects: objs, Steps: 150, MutateRatio: 0.8})
		if c.Drops() == 0 {
			t.Skip("no copies dropped at this seed; nothing to assert")
		}
		c.Quiesce()
		surface(c, objs)
		err := c.CheckConverged(objs)
		if store.ConformanceOf(c.Store()).ConvergesUnderLoss {
			if err != nil {
				t.Fatalf("loss-converging store failed to converge through %d drops: %v", c.Drops(), err)
			}
			return
		}
		if !errors.Is(err, sim.ErrLossyRun) {
			t.Fatalf("lossy run verdict = %v, want ErrLossyRun", err)
		}
	})
}
