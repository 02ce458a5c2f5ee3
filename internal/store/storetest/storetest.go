// Package storetest provides a reusable conformance suite for store.Store
// implementations: the §2 state-machine contract (deterministic pending
// messages, a send relays everything), tolerance of the deliveries
// well-formed executions permit (duplication, reordering), determinism of
// state digests, quiescent convergence, and — where the store claims them —
// the §4 write-propagating properties.
//
// What a store claims comes from the store itself: Run reads the
// store.Conformance it declares, and RunRegistered runs Run on every name
// in the store registry, so registering a store is what puts it under the
// battery, held to exactly what it declares.
package storetest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
)

// mutate returns an MVR write with a unique value per call, spread over
// three objects: the mutator every registered store supports.
func mutate(i int) (model.ObjectID, model.Operation) {
	return model.ObjectID(fmt.Sprintf("obj%d", i%3)), model.Write(model.Value(fmt.Sprintf("v%d", i)))
}

// surface performs the read rounds a store needs to expose withheld state
// before convergence is asserted, less the one the convergence check's own
// reads make (store.Conformance.ConvergenceReadRounds).
func surface(c *sim.Cluster, objs []model.ObjectID) {
	surfaceRounds(c, objs, store.ConformanceOf(c.Store()).ConvergenceReadRounds)
}

// surfaceRounds is surface for a store that needs rounds read rounds.
func surfaceRounds(c *sim.Cluster, objs []model.ObjectID, rounds int) {
	for round := 1; round < rounds; round++ {
		for r := 0; r < c.N(); r++ {
			for _, obj := range objs {
				c.Do(model.ReplicaID(r), obj, model.Read())
			}
		}
	}
}

// RunRegistered runs the conformance battery on every name in the store
// registry. A store package only has to call store.Register to be
// covered — a registration cannot skip the suite by not having a
// conformance test of its own.
func RunRegistered(t *testing.T, opts store.Options) {
	names := store.Names()
	if len(names) == 0 {
		t.Fatal("store registry is empty — nothing to conform")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			Run(t, func() store.Store {
				st, err := store.Open(name, spec.MVRTypes(), opts)
				if err != nil {
					t.Fatalf("open %q: %v", name, err)
				}
				return st
			})
		})
	}
}

// Run executes the conformance battery on the stores factory builds,
// holding them to what they declare in their store.Conformance.
func Run(t *testing.T, factory func() store.Store) {
	claims := store.ConformanceOf(factory())
	t.Run("InitialStateHasNoPendingMessage", func(t *testing.T) {
		r := factory().NewReplica(0, 3)
		if r.PendingMessage() != nil {
			t.Fatal("Definition 15(1): message pending in σ₀")
		}
	})
	t.Run("PendingMessageIsDeterministic", func(t *testing.T) {
		r := factory().NewReplica(0, 3)
		obj, op := mutate(0)
		r.Do(obj, op)
		p1 := slices.Clone(r.PendingMessage()) // lent until the next call
		p2 := r.PendingMessage()
		if string(p1) != string(p2) {
			t.Fatal("PendingMessage is not a deterministic function of state")
		}
	})
	t.Run("SendDrainsPending", func(t *testing.T) {
		r := factory().NewReplica(0, 3)
		for i := 0; i < 4; i++ {
			obj, op := mutate(i)
			r.Do(obj, op)
		}
		r.OnSend()
		if r.PendingMessage() != nil {
			t.Fatal("a message still pending after one send: the send did not relay every queued write")
		}
	})
	t.Run("StateDigestDeterministic", func(t *testing.T) {
		build := func() store.Replica {
			r := factory().NewReplica(1, 3)
			for i := 0; i < 6; i++ {
				obj, op := mutate(i)
				r.Do(obj, op)
			}
			return r
		}
		if build().StateDigest() != build().StateDigest() {
			t.Fatal("identical histories produced different digests")
		}
	})
	runAppendStateDigest(t, factory)
	// Redelivery must leave the digest alone unless the store's transient
	// state tracks deliveries (K-buffer holds duplicate payloads until
	// exposure; it stays correct, but not digest-identical).
	if !claims.TransientDeliveryState {
		runDuplicateIdempotence(t, factory)
	}
	runRest(t, factory, claims)
}

// Send performs r's send event if it has a message pending and returns a
// copy of the message, the caller's to keep where PendingMessage only lends
// it; with nothing pending it returns nil and r does not move.
func Send(r store.Replica) []byte {
	p := r.PendingMessage()
	if p == nil {
		return nil
	}
	p = slices.Clone(p)
	r.OnSend()
	return p
}

// DriveRandom drives the replicas of one population through a seeded
// schedule. Each step picks a replica and either applies op's operation to
// it (two steps in four), broadcasts its pending message, or delivers it
// one in-flight payload from any queue position — one time in eight
// leaving the payload queued, for a duplicate delivery later. after runs
// at the end of every step with the replica that moved. Stores' digest
// tests share it so that they all see reordering, duplication and
// withheld messages.
func DriveRandom(seed int64, reps []store.Replica, steps int,
	op func(rng *rand.Rand, step int) (model.ObjectID, model.Operation),
	after func(step int, r store.Replica)) {
	rng := rand.New(rand.NewSource(seed))
	inflight := make([][][]byte, len(reps))
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(reps))
		r := reps[i]
		switch rng.Intn(4) {
		case 0, 1:
			r.Do(op(rng, step))
		case 2:
			if p := Send(r); p != nil {
				for to := range reps {
					if to != i {
						inflight[to] = append(inflight[to], p)
					}
				}
			}
		case 3:
			if q := inflight[i]; len(q) > 0 {
				k := rng.Intn(len(q))
				r.Receive(q[k])
				if rng.Intn(8) != 0 {
					inflight[i] = append(q[:k], q[k+1:]...)
				}
			}
		}
		after(step, r)
	}
}

// runAppendStateDigest holds the two digest methods to one renderer: along
// a seeded schedule, AppendStateDigest(nil) is StateDigest, and appending
// after a non-empty dst leaves dst's bytes alone — the checker hands it
// recycled buffers.
func runAppendStateDigest(t *testing.T, factory func() store.Store) {
	t.Run("AppendStateDigestMatchesStateDigest", func(t *testing.T) {
		const n = 3
		st := factory()
		var reps []store.Replica
		for i := 0; i < n; i++ {
			reps = append(reps, st.NewReplica(model.ReplicaID(i), n))
		}
		op := func(rng *rand.Rand, step int) (model.ObjectID, model.Operation) {
			obj, op := mutate(step)
			if rng.Intn(3) == 0 {
				op = model.Read()
			}
			return obj, op
		}
		DriveRandom(16, reps, 300, op, func(step int, r store.Replica) {
			want := r.StateDigest()
			if got := string(r.AppendStateDigest(nil)); got != want {
				t.Fatalf("step %d: AppendStateDigest(nil) = %q, StateDigest() = %q", step, got, want)
			}
			const prefix = "recycled "
			dst := append(make([]byte, 0, 4096), prefix...)
			if got := string(r.AppendStateDigest(dst)); got != prefix+want {
				t.Fatalf("step %d: AppendStateDigest after %q = %q, want the digest appended", step, prefix, got)
			}
		})
	})
}

func runDuplicateIdempotence(t *testing.T, factory func() store.Store) {
	t.Run("DuplicateDeliveryIdempotent", func(t *testing.T) {
		st := factory()
		src := st.NewReplica(0, 2)
		dst := st.NewReplica(1, 2)
		var payloads [][]byte
		for i := 0; i < 5; i++ {
			obj, op := mutate(i)
			src.Do(obj, op)
			if p := Send(src); p != nil {
				payloads = append(payloads, p)
			}
		}
		for _, p := range payloads {
			dst.Receive(p)
		}
		before := dst.StateDigest()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 10; i++ {
			dst.Receive(payloads[rng.Intn(len(payloads))])
		}
		if dst.StateDigest() != before {
			t.Fatal("redelivery changed state")
		}
	})
}

func runRest(t *testing.T, factory func() store.Store, claims store.Conformance) {
	t.Run("WritesCreatePendingMessages", func(t *testing.T) {
		// Lemma 5's conclusion: in a quiescent-looking state, a write leaves
		// the replica with a message pending — otherwise the write could
		// never propagate and eventual consistency would fail.
		r := factory().NewReplica(0, 3)
		obj, op := mutate(0)
		r.Do(obj, op)
		if r.PendingMessage() == nil {
			t.Fatal("no message pending after a write (Lemma 5)")
		}
	})
	t.Run("HighAvailability", func(t *testing.T) {
		// Every operation returns immediately with no network interaction —
		// structurally guaranteed by the interface, checked here for the
		// full op surface.
		r := factory().NewReplica(2, 3)
		obj, op := mutate(0)
		if got := r.Do(obj, op); !got.OK {
			t.Fatalf("mutator not acknowledged: %s", got)
		}
		_ = r.Do(obj, model.Read())
		_ = r.Do("never-written", model.Read())
	})
	if !claims.ViolatesInvisibleReads {
		t.Run("InvisibleReads", func(t *testing.T) {
			r := factory().NewReplica(0, 2)
			obj, op := mutate(0)
			r.Do(obj, op)
			before := r.StateDigest()
			r.Do(obj, model.Read())
			r.Do("other", model.Read())
			if r.StateDigest() != before {
				t.Fatal("Definition 16 violated")
			}
		})
	}
	if !claims.ViolatesOpDrivenMessages {
		t.Run("OpDrivenMessages", func(t *testing.T) {
			st := factory()
			src := st.NewReplica(0, 2)
			dst := st.NewReplica(1, 2)
			obj, op := mutate(0)
			src.Do(obj, op)
			dst.Receive(Send(src))
			if dst.PendingMessage() != nil {
				t.Fatal("Definition 15(2) violated: receive created a pending message")
			}
		})
	}
	t.Run("QuiescentConvergence", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			c := sim.NewCluster(factory(), 3, seed)
			c.SetFaults(sim.Faults{DupProb: 0.2, Reorder: true})
			objs := []model.ObjectID{"obj0", "obj1", "obj2"}
			c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 150})
			c.Quiesce()
			surface(c, objs)
			if err := c.CheckConverged(objs); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
	t.Run("WithheldDeliveriesConverge", func(t *testing.T) {
		// One replica is cut off while another writes, so every delivery it
		// is owed arrives at quiescence — one per declared read round — and
		// only the declared rounds surface them. Reads of one object make a
		// round one read per replica, so no other object's reads age what
		// is withheld: a store that declares fewer rounds than it needs
		// diverges here, and one that declares more than one round must
		// diverge with one round fewer, or it declares a spare.
		rounds := max(claims.ConvergenceReadRounds, 1)
		converges := func(rounds int) error {
			c := sim.NewCluster(factory(), 3, 0)
			objs := []model.ObjectID{"obj0"}
			c.Partition([]model.ReplicaID{0}, []model.ReplicaID{1, 2})
			for i := 0; i < max(claims.ConvergenceReadRounds, 1); i++ {
				c.Do(1, objs[0], model.Write(model.Value(fmt.Sprintf("w%d", i))))
				c.Send(1)
			}
			c.Quiesce()
			surfaceRounds(c, objs, rounds)
			return c.CheckConverged(objs)
		}
		if err := converges(rounds); err != nil {
			t.Fatal(err)
		}
		if rounds > 1 && converges(rounds-1) == nil {
			t.Fatalf("converged after %d read rounds, one fewer than the %d declared", rounds-1, rounds)
		}
	})
	runChaos(t, factory)
	runShardedCluster(t, factory)
	runLentMessages(t, factory)
	// The GSP sequencer assigns positions in arrival order, so delivery
	// order is significant to it by design.
	if claims.OrdersDeliveries {
		return
	}
	t.Run("IndependentDeliveriesCommute", func(t *testing.T) {
		// Two messages from different origins applied in either order leave
		// identical state (for stores where both orders are deliverable;
		// causal stores buffer, which must also commute).
		st := factory()
		a := st.NewReplica(1, 3)
		b := st.NewReplica(2, 3)
		obj, op := mutate(0)
		a.Do(obj, op)
		obj2, op2 := mutate(1)
		b.Do(obj2, op2)
		pa := Send(a)
		pb := Send(b)
		d1 := st.NewReplica(0, 3)
		d1.Receive(pa)
		d1.Receive(pb)
		d2 := st.NewReplica(0, 3)
		d2.Receive(pb)
		d2.Receive(pa)
		if d1.StateDigest() != d2.StateDigest() {
			t.Fatal("independent deliveries do not commute")
		}
	})
}
