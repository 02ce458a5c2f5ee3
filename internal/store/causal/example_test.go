package causal_test

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store/causal"
)

// Example shows the causal store's MVR semantics directly through the
// replica state-machine interface: concurrent writes surface as siblings; a
// causally later write collapses them.
func Example() {
	st := causal.New(spec.MVRTypes())
	r0 := st.NewReplica(0, 2)
	r1 := st.NewReplica(1, 2)

	// Concurrent writes on both sides of a (conceptual) partition.
	r0.Do("x", model.Write("left"))
	r1.Do("x", model.Write("right"))

	// Exchange the pending broadcasts. A replica lends its pending message
	// until its next transition, so a message kept past OnSend is copied.
	p0 := slices.Clone(r0.PendingMessage())
	r0.OnSend()
	p1 := slices.Clone(r1.PendingMessage())
	r1.OnSend()
	r0.Receive(p1)
	r1.Receive(p0)
	fmt.Println("siblings:", r0.Do("x", model.Read()))

	// A write that has observed both siblings dominates them.
	r1.Do("x", model.Write("merged"))
	r0.Receive(slices.Clone(r1.PendingMessage()))
	r1.OnSend()
	fmt.Println("resolved:", r0.Do("x", model.Read()))
	// Output:
	// siblings: {left,right}
	// resolved: {merged}
}
