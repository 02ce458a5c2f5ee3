package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store/causal"
	"repro/internal/store/gsp"
	"repro/internal/store/kbuffer"
	"repro/internal/store/lww"
	"repro/internal/store/statesync"
)

// twoWriterScript: concurrent cross-object writes plus reads — small enough
// for exhaustive exploration, rich enough to exercise buffering.
func twoWriterScript() Script {
	return Script{
		Replicas: 3,
		Ops: []Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 0, Object: "y", Op: model.Write("b")},
			{Replica: 1, Object: "x", Op: model.Write("c")},
			{Replica: 2, Object: "x", Op: model.Read()},
			{Replica: 2, Object: "y", Op: model.Read()},
		},
	}
}

func TestExploreCausalStoreAllSchedules(t *testing.T) {
	res, err := Explore(twoWriterScript(), Config{Store: causal.New(spec.MVRTypes())})
	if err != nil {
		t.Fatal(err)
	}
	if res.States < 50 || res.FinalStates == 0 {
		t.Fatalf("suspiciously small exploration: %+v", res)
	}
	t.Logf("explored %d states, %d final, %d transitions", res.States, res.FinalStates, res.Transitions)
}

// TestExploreCausalDependencyInvariant checks, in EVERY reachable state,
// the causal-consistency signature of the two-writer script: y=b is never
// visible anywhere unless x already reflects its dependency x=a — either a
// itself or a write that causally dominates it (c, whose own dependency is
// a). An empty x alongside y=b is the dependency inversion causal delivery
// forbids.
func TestExploreCausalDependencyInvariant(t *testing.T) {
	script := twoWriterScript()
	invariant := func(v *View) error {
		for r := model.ReplicaID(0); r < 3; r++ {
			y := v.Read(r, "y")
			if y.Contains("b") {
				x := v.Read(r, "x")
				if len(x.Values) == 0 {
					return fmt.Errorf("r%d sees y=b with x empty (dependency inversion)", r)
				}
			}
		}
		return nil
	}
	if _, err := Explore(script, Config{Store: causal.New(spec.MVRTypes()), Invariant: invariant}); err != nil {
		t.Fatal(err)
	}
}

// TestExploreLWWViolatesDependencyInvariant shows the same invariant FAILS
// for the eagerly-applying LWW store in some schedule — the explorer finds
// the counterexample deterministically.
func TestExploreLWWViolatesDependencyInvariant(t *testing.T) {
	script := twoWriterScript()
	invariant := func(v *View) error {
		for r := model.ReplicaID(0); r < 3; r++ {
			y := v.Read(r, "y")
			if y.Contains("b") {
				x := v.Read(r, "x")
				if len(x.Values) == 0 {
					return fmt.Errorf("r%d sees y=b with x empty", r)
				}
			}
		}
		return nil
	}
	_, err := Explore(script, Config{Store: lww.New(spec.MVRTypes()), Invariant: invariant})
	if err == nil {
		t.Fatal("explorer failed to find the dependency-inversion schedule for lww")
	}
	if !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("unexpected error: %v", err)
	}
	t.Logf("counterexample: %v", err)
}

func TestExploreStateSyncConverges(t *testing.T) {
	res, err := Explore(twoWriterScript(), Config{Store: statesync.New(spec.MVRTypes())})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStates == 0 {
		t.Fatalf("no final states: %+v", res)
	}
}

func TestExploreGSPAgreedOrderEverywhere(t *testing.T) {
	// In every reachable state, GSP confirmed logs are prefix-compatible
	// across replicas.
	script := Script{
		Replicas: 3,
		Ops: []Op{
			{Replica: 1, Object: "x", Op: model.Write("a")},
			{Replica: 2, Object: "x", Op: model.Write("b")},
			{Replica: 1, Object: "y", Op: model.Write("c")},
		},
	}
	invariant := func(v *View) error {
		logs := make([][]model.Dot, 3)
		for r := model.ReplicaID(0); r < 3; r++ {
			rep, ok := v.Replica(r).(*gsp.Replica)
			if !ok {
				return fmt.Errorf("unexpected replica type")
			}
			logs[r] = rep.Log()
		}
		for i := 1; i < 3; i++ {
			shorter, longer := logs[0], logs[i]
			if len(shorter) > len(longer) {
				shorter, longer = longer, shorter
			}
			for p := range shorter {
				if shorter[p] != longer[p] {
					return fmt.Errorf("confirmed logs disagree at %d: %v vs %v", p, logs[0], logs[i])
				}
			}
		}
		return nil
	}
	res, err := Explore(script, Config{
		Store:     gsp.New(spec.MVRTypes()),
		Invariant: invariant,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d states", res.States)
}

func TestExploreKBufferWithReadRounds(t *testing.T) {
	script := Script{
		Replicas: 2,
		Ops: []Op{
			{Replica: 0, Object: "x", Op: model.Write("a")},
			{Replica: 1, Object: "x", Op: model.Write("b")},
		},
	}
	const k = 2
	if _, err := Explore(script, Config{
		Store: kbuffer.New(spec.MVRTypes(), k),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestExploreStateBudget(t *testing.T) {
	_, err := Explore(twoWriterScript(), Config{Store: causal.New(spec.MVRTypes()), MaxStates: 5})
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
}

func TestExploreRejectsBadScript(t *testing.T) {
	script := Script{Replicas: 1, Ops: []Op{{Replica: 5, Object: "x", Op: model.Write("a")}}}
	if _, err := Explore(script, Config{Store: causal.New(spec.MVRTypes())}); err == nil {
		t.Fatal("expected out-of-range replica rejection")
	}
}

func TestExploreDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Explore(twoWriterScript(), Config{Store: causal.New(spec.MVRTypes())})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.States != b.States || a.FinalStates != b.FinalStates || a.Transitions != b.Transitions {
		t.Fatalf("exploration not deterministic: %+v vs %+v", a, b)
	}
}
