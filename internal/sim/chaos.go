package sim

import (
	"repro/internal/fault"
	"repro/internal/model"
)

// chaosState overlays a fault schedule's effects on the simulated network,
// apart from the probabilistic Faults so the two compose. Its links are a
// fault.Links, the same link state fault.Netem gives the TCP cluster, which
// Partition and Heal write too: a cut link blocks delivery (delay, never
// loss — Definition 3 is preserved), and so does an open delay window
// until it closes; dup duplicates broadcast copies on a link, reorder
// randomizes delivery picks on a link, and a rate window shapes nothing,
// since delivery here is not byte-timed. A crashed replica takes no steps
// while its state and queued messages survive (fail-stop with durable
// state — equivalent in the paper's asynchronous model to a replica that
// is merely very slow).
type chaosState struct {
	crashed []bool
	// left marks replicas departed by a leave directive. In the simulator
	// a departed replica behaves like a crashed one — no client steps, no
	// deliveries — but its rejoin is a KindJoin, whose catch-up cost (the
	// backlog queued while away) is what the churn metrics measure.
	left  []bool
	links *fault.Links
}

// chaosOverlay lazily allocates the overlay, so clusters that never see a
// directive or a partition pay nothing on the delivery path.
func (c *Cluster) chaosOverlay() *chaosState {
	if c.chaos == nil {
		c.chaos = &chaosState{
			crashed: make([]bool, c.n),
			left:    make([]bool, c.n),
			links:   fault.NewLinks(c.n),
		}
	}
	return c.chaos
}

// ClearChaos lifts every directive effect and partition: all links
// restored and shaped clean, all crashed replicas resumed. Quiesce calls
// this, mirroring how it suspends probabilistic faults — quiescence must be
// reachable.
func (c *Cluster) ClearChaos() { c.chaos = nil }

// Crashed reports whether replica r is currently out of the run — crashed
// or departed by a directive. Both suppress client steps and deliveries.
func (c *Cluster) Crashed(r model.ReplicaID) bool {
	return c.chaos != nil && (c.chaos.crashed[r] || c.chaos.left[r])
}

// SetObserver installs a chaos-metrics collector: applied directives,
// blocked deliveries, duplicated copies, and quiesce work report to it.
// The counters it receives are functions of the deterministic execution
// only, so the metrics of a (store, seed, schedule) triple are exactly
// reproducible. A nil observer detaches.
func (c *Cluster) SetObserver(o *fault.Observer) { c.obs = o }

// ApplyDirective enforces one fault-schedule directive on the simulated
// network: crash/restart and leave/join toggle a replica's participation,
// and a link directive goes to the overlay's fault.Links.
func (c *Cluster) ApplyDirective(d fault.Directive) {
	cs := c.chaosOverlay()
	c.obs.Directive(d)
	switch d.Kind {
	case fault.KindCrash:
		cs.crashed[d.Node] = true
	case fault.KindRestart:
		cs.crashed[d.Node] = false
	case fault.KindLeave:
		cs.left[d.Node] = true
	case fault.KindJoin:
		cs.left[d.Node] = false
		// The backlog queued while away is exactly what anti-entropy would
		// ship on the TCP engine; count it as the join's sync cost.
		c.obs.AddSyncUpdates(int64(len(c.queues[d.Node])))
	default:
		cs.links.Apply(d)
	}
}

// RunScheduled drives the random workload while enforcing a fault schedule:
// before workload step k executes, every directive due at step k is
// applied. The step count is the larger of cfg.Steps and sched.Steps, so
// the whole schedule always plays out. Crashed replicas take no client
// steps and send nothing, but every RNG draw still happens, so the
// operation sequence is a pure function of the cluster seed and the
// schedule. Directives never drop messages, so a scheduled run stays
// non-lossy (CheckConverged rules on it) unless probabilistic Faults are
// also installed. Returns the number of client operations performed.
func (c *Cluster) RunScheduled(sched fault.Schedule, cfg WorkloadConfig) int {
	cfg.defaults()
	if len(cfg.Objects) == 0 {
		panic("sim: workload needs at least one object")
	}
	steps := cfg.Steps
	if steps < sched.Steps {
		steps = sched.Steps
	}
	types := c.st.Types()
	ops := 0
	nextValue := 0
	di := 0
	for step := 0; step < steps; step++ {
		for di < len(sched.Directives) && sched.Directives[di].Step <= step {
			c.ApplyDirective(sched.Directives[di])
			di++
		}
		r := model.ReplicaID(c.rng.Intn(c.n))
		obj := cfg.Objects[c.rng.Intn(len(cfg.Objects))]
		op := c.randOp(&cfg, types, r, obj, &nextValue)
		if !c.Crashed(r) {
			c.Do(r, obj, op)
			ops++
		}
		if c.rng.Float64() < cfg.SendProb {
			c.Send(model.ReplicaID(c.rng.Intn(c.n)))
		}
		if c.rng.Float64() < cfg.DeliverProb {
			c.DeliverOne(model.ReplicaID(c.rng.Intn(c.n)))
		}
	}
	for di < len(sched.Directives) {
		c.ApplyDirective(sched.Directives[di])
		di++
	}
	c.obs.Finish(steps)
	return ops
}
