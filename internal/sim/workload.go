package sim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/spec"
)

// WorkloadConfig drives a randomized client/network schedule against a
// cluster. All randomness comes from the cluster's seeded RNG, so runs are
// reproducible.
type WorkloadConfig struct {
	// Objects is the object pool operated on (must be non-empty).
	Objects []model.ObjectID
	// Steps is the number of scheduler steps.
	Steps int
	// MutateRatio is the fraction of client operations that mutate
	// (default 0.5).
	MutateRatio float64
	// SendProb is the per-step probability of broadcasting a random
	// replica's pending message (default 0.3).
	SendProb float64
	// DeliverProb is the per-step probability of delivering one queued
	// message to a random replica (default 0.4).
	DeliverProb float64
	// SetValues is the value pool for ORset adds/removes (default small
	// pool). MVR/register writes always use globally unique values, per the
	// paper's distinct-values assumption.
	SetValues []model.Value
}

func (cfg *WorkloadConfig) defaults() {
	if cfg.MutateRatio == 0 {
		cfg.MutateRatio = 0.5
	}
	if cfg.SendProb == 0 {
		cfg.SendProb = 0.3
	}
	if cfg.DeliverProb == 0 {
		cfg.DeliverProb = 0.4
	}
	if len(cfg.SetValues) == 0 {
		cfg.SetValues = []model.Value{"a", "b", "c", "d"}
	}
}

// randOp draws one client operation for replica r on obj from the cluster
// RNG. The draw sequence is part of the reproducibility contract, so it must
// not change.
func (c *Cluster) randOp(cfg *WorkloadConfig, types spec.Types, r model.ReplicaID, obj model.ObjectID, nextValue *int) model.Operation {
	op := model.Read()
	if c.rng.Float64() < cfg.MutateRatio {
		switch types.Of(obj) {
		case spec.TypeMVR, spec.TypeRegister:
			*nextValue++
			op = model.Write(model.Value(fmt.Sprintf("v%d.%d", r, *nextValue)))
		case spec.TypeORSet:
			v := cfg.SetValues[c.rng.Intn(len(cfg.SetValues))]
			if c.rng.Float64() < 0.5 {
				op = model.Add(v)
			} else {
				op = model.Remove(v)
			}
		case spec.TypeCounter:
			op = model.Inc(int64(c.rng.Intn(5) - 2))
		}
	}
	return op
}

// RunRandom executes a random workload: each step performs one client
// operation at a random replica and then, independently, possibly broadcasts
// and possibly delivers — RunScheduled under no schedule. Returns the number
// of client operations performed.
func (c *Cluster) RunRandom(cfg WorkloadConfig) int {
	return c.RunScheduled(fault.Schedule{}, cfg)
}
