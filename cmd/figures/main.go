// Command figures regenerates every paper artifact reproduced in this
// repository (see DESIGN.md §3): the Figure 1 specification semantics, the
// Figure 2 concurrency-inference experiment, the Figure 3 OCC scenarios, the
// Theorem 6 construction, the Theorem 12 / Figure 4 message lower bound, the
// §5.3 invisible-reads counterexample, quiescent convergence (Lemma 3 /
// Corollary 4), and the Charron-Bost dimension extension.
//
// Usage:
//
//	figures -all            # everything (default)
//	figures -fig 2          # one figure (1, 2, 3)
//	figures -thm 12         # one theorem (6, 12)
//	figures -sec 5.3        # the §5.3 experiment
//	figures -ext gsp        # extensions: charronbost, convergence, gsp,
//	                        # propagation, statesize, sessions
//	figures -slow           # include the slow crown S_4 refutation
//	figures -parallel 8     # sweep/batch cells on 8 workers
//	figures -json           # JSON Lines, one table per line
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/abstract"
	"repro/internal/bench"
	"repro/internal/charronbost"
	"repro/internal/cli"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/causal"
)

func main() {
	seed := cli.SeedFlag(flag.CommandLine, 1)
	parallel := cli.ParallelFlag(flag.CommandLine)
	jsonOut := cli.JSONFlag(flag.CommandLine)
	fig := flag.Int("fig", 0, "regenerate one figure (1, 2, or 3)")
	thm := flag.Int("thm", 0, "regenerate one theorem experiment (6 or 12)")
	sec := flag.String("sec", "", "regenerate a section experiment (5.3)")
	ext := flag.String("ext", "", "regenerate an extension (charronbost, convergence, gsp, propagation, statesize, sessions)")
	all := flag.Bool("all", false, "regenerate everything")
	slow := flag.Bool("slow", false, "include slow experiments (crown S_4)")
	flag.Parse()

	if err := run(os.Stdout, *fig, *thm, *sec, *ext, *all, *slow, *seed, *parallel, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// mvr opens a registered store over the MVR type assignment; the registry
// replaces the per-command store switches (see internal/store/registry.go).
func mvr(name string) store.Store {
	return cli.MustStore(name, spec.MVRTypes(), store.Options{})
}

func run(w io.Writer, fig, thm int, sec, ext string, all, slow bool, seed int64, parallel int, jsonOut bool) error {
	out := cli.Output(w, jsonOut)
	none := fig == 0 && thm == 0 && sec == "" && ext == ""
	if all || none {
		fig, thm = -1, -1
		sec, ext = "-", "-"
	}
	if fig == 1 || fig == -1 {
		if err := figure1(out); err != nil {
			return err
		}
	}
	if fig == 2 || fig == -1 {
		if err := figure2(out); err != nil {
			return err
		}
	}
	if fig == 3 || fig == -1 {
		if err := figure3(out); err != nil {
			return err
		}
	}
	if thm == 6 || thm == -1 {
		if err := theorem6(out, seed, parallel); err != nil {
			return err
		}
	}
	if thm == 12 || thm == -1 {
		if err := theorem12(out, seed, parallel); err != nil {
			return err
		}
	}
	if sec == "5.3" || sec == "-" {
		if err := section53(out); err != nil {
			return err
		}
	}
	if ext == "convergence" || ext == "-" {
		if err := convergence(out, seed); err != nil {
			return err
		}
	}
	if ext == "charronbost" || ext == "-" {
		if err := charronBost(out, slow); err != nil {
			return err
		}
	}
	if ext == "gsp" || ext == "-" {
		if err := openQuestion(out); err != nil {
			return err
		}
	}
	if ext == "propagation" || ext == "-" {
		if err := propagation(out, seed); err != nil {
			return err
		}
	}
	if ext == "statesize" || ext == "-" {
		if err := statesize(out); err != nil {
			return err
		}
	}
	if ext == "sessions" || ext == "-" {
		if err := sessions(out); err != nil {
			return err
		}
	}
	return nil
}

// sessions decomposes causal consistency into the four session guarantees
// on one dependency-inversion schedule: r0 writes x and broadcasts; r1
// observes it and writes y; r2 receives ONLY r1's message and reads both
// objects. A causally consistent store buffers y's update until x's
// arrives; an eagerly-applying store exposes y without x, which breaks
// writes-follow-reads while keeping the purely session-local guarantees.
func sessions(out bench.Output) error {
	t := bench.NewTable("Session guarantees — decomposing causal consistency",
		"store", "read-your-writes", "monotonic reads", "writes-follow-reads", "monotonic writes", "causal (Def 12)")
	for _, name := range []string{"causal", "statesync", "lww"} {
		st := mvr(name)
		c := sim.NewCluster(st, 3, 2)
		c.Do(0, "x", model.Write("a"))
		c.Send(0)
		c.DeliverOne(1) // r1 observes x=a
		c.Do(1, "x", model.Read())
		c.Do(1, "y", model.Write("b")) // causally after x=a
		c.Send(1)
		c.DeliverFrom(2, 1) // r2 gets ONLY r1's message
		c.Do(2, "y", model.Read())
		c.Do(2, "x", model.Read())
		a := c.DerivedAbstract()
		v := consistency.CheckSessionGuarantees(a)
		t.AddRow(st.Name(),
			bench.Verdict(v.ReadYourWrites), bench.Verdict(v.MonotonicReads),
			bench.Verdict(v.WritesFollowReads), bench.Verdict(v.MonotonicWrites),
			bench.Verdict(consistency.CheckCausal(a, st.Types())))
	}
	t.Note = "the session guarantees are strictly weaker than causal consistency: the lww store keeps all four session-local guarantees on this schedule yet fails transitivity (writes-follow-reads) by applying y=b without its dependency"
	return out.Emit(t)
}

// propagation contrasts op-based (store/causal) and state-based
// (store/statesync) update propagation under message loss, and the message
// sizes each pays.
func propagation(out bench.Output, seed int64) error {
	t := bench.NewTable("Propagation ablation — op-based vs state-based under message loss",
		"store", "drop prob", "converged after loss-free tail?", "total msg KB", "max msg bytes")
	objs := []model.ObjectID{"x", "y"}
	for _, name := range []string{"causal", "statesync"} {
		for _, drop := range []float64{0, 0.4, 0.8} {
			st := mvr(name)
			c := sim.NewCluster(st, 3, seed+4)
			c.SetFaults(sim.Faults{DropProb: drop})
			c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 150, MutateRatio: 0.8})
			c.SetFaults(sim.Faults{})
			// A loss-free tail: every replica mutates once and everything
			// drains. State-based messages subsume all earlier losses;
			// op-based losses are permanent.
			for r := 0; r < c.N(); r++ {
				c.Do(model.ReplicaID(r), "x", model.Write(model.Value(fmt.Sprintf("tail%d", r))))
			}
			c.Quiesce()
			totalBytes, maxBytes := 0, 0
			for _, m := range c.Execution().Messages {
				totalBytes += len(m.Payload)
				if len(m.Payload) > maxBytes {
					maxBytes = len(m.Payload)
				}
			}
			t.AddRow(st.Name(), drop, bench.Verdict(c.CheckConverged(objs)),
				fmt.Sprintf("%.1f", float64(totalBytes)/1024), maxBytes)
		}
	}
	t.Note = "state-based propagation reconverges through arbitrary loss at the price of full-state messages; op-based deltas are small but a dropped update is gone (no retransmission in the model)"
	return out.Emit(t)
}

// statesize measures per-replica metadata growth — the §7 space-bound
// flavor: the replica keeps one n-entry clock and each surviving MVR
// sibling a value and a dot, so state grows with the replica count plus the
// sibling count.
func statesize(out bench.Output) error {
	t := bench.NewTable("State size — MVR metadata growth (space lower-bound flavor, §7)",
		"replicas", "concurrent writers", "siblings held", "state bytes (digest proxy)")
	for _, n := range []int{2, 4, 8, 16} {
		st := mvr("causal")
		replicas := make([]store.Replica, n)
		for i := range replicas {
			replicas[i] = st.NewReplica(model.ReplicaID(i), n)
		}
		// Every replica writes x concurrently; replica 0 receives everything.
		for i := 1; i < n; i++ {
			replicas[i].Do("x", model.Write(model.Value(fmt.Sprintf("v%d", i))))
			// Replica i only lends its message, and replica 0 keeps what it
			// receives: it is delivered as a copy.
			replicas[0].Receive(slices.Clone(replicas[i].PendingMessage()))
			replicas[i].OnSend()
		}
		siblings := len(replicas[0].Do("x", model.Read()).Values)
		t.AddRow(n, n-1, siblings, len(replicas[0].StateDigest()))
	}
	t.Note = "each surviving sibling holds a value and a dot, and the replica clock is the one n-entry vector: state grows as n + min{concurrency, writers}, not as their product"
	return out.Emit(t)
}

// openQuestion probes the paper's §5.3/§7 open question: can the op-driven
// messages assumption be relaxed? The GSP store (sequencer-ordered writes,
// the paper's [11]) violates Definition 15 and in exchange guarantees one
// agreed total order of writes at every replica — strictly stronger than
// anything a write-propagating store achieves, and impossible for one (the
// causal store applies concurrent writes in divergent orders).
func openQuestion(out bench.Output) error {
	t := bench.NewTable("Open question — relaxing op-driven messages (GSP vs write-propagating)",
		"store", "op-driven?", "invisible reads?", "identical apply order?", "exposes concurrency?")

	scenario := func(st store.Store) (opDriven, invisible, sameOrder, exposes bool, err error) {
		c := sim.NewCluster(st, 3, 4)
		// Two concurrent writers; everything propagates through the mesh.
		c.Do(1, "x", model.Write("a"))
		c.Do(2, "x", model.Write("b"))
		c.Do(1, "y", model.Write("p"))
		c.Do(2, "y", model.Write("q"))
		c.Quiesce()
		resp := c.Do(0, "x", model.Read())
		exposes = len(resp.Values) > 1

		opDriven, invisible = true, true
		for _, v := range c.PropertyViolations() {
			switch v.Property {
			case "op-driven messages":
				opDriven = false
			case "invisible reads":
				invisible = false
			}
		}

		order := func(r model.ReplicaID) []model.Dot {
			switch rep := c.Replica(r).(type) {
			case interface{ Log() []model.Dot }:
				return rep.Log()
			case interface{ ApplyOrder() []model.Dot }:
				return rep.ApplyOrder()
			default:
				return nil
			}
		}
		sameOrder = true
		base := order(1)
		for r := 2; r < c.N(); r++ {
			other := order(model.ReplicaID(r))
			if len(other) != len(base) {
				sameOrder = false
				continue
			}
			for i := range base {
				if base[i] != other[i] {
					sameOrder = false
				}
			}
		}
		return opDriven, invisible, sameOrder, exposes, nil
	}

	for _, name := range []string{"causal", "gsp", "lww"} {
		st := mvr(name)
		opDriven, invisible, sameOrder, exposes, err := scenario(st)
		if err != nil {
			return err
		}
		t.AddRow(st.Name(), opDriven, invisible, sameOrder, exposes)
	}
	t.Note = "gsp trades Definition 15 for one agreed total order (stronger than OCC on its histories); write-propagating stores apply concurrent writes in divergent orders and at best expose the concurrency"
	return out.Emit(t)
}

// figure1 exercises the Figure 1 specification functions on canonical
// operation contexts.
func figure1(out bench.Output) error {
	t := bench.NewTable("Figure 1 — replicated object specifications",
		"object", "scenario", "read returns")
	types := spec.MVRTypes().With("s", spec.TypeORSet).With("reg", spec.TypeRegister)

	eval := func(obj model.ObjectID, events []model.Event, edges [][2]int) string {
		a := abstract.New()
		for _, e := range events {
			a.Append(e)
		}
		for _, edge := range edges {
			a.AddVis(edge[0], edge[1])
		}
		return spec.Specified(a, types, a.Len()-1).String()
	}
	ok := model.OKResponse()

	t.AddRow("register", "two concurrent writes, last in H wins", eval("reg",
		[]model.Event{
			model.DoEvent(0, "reg", model.Write("v1"), ok),
			model.DoEvent(1, "reg", model.Write("v2"), ok),
			model.DoEvent(2, "reg", model.Read(), model.Response{}),
		}, [][2]int{{0, 2}, {1, 2}}))
	t.AddRow("mvr", "two concurrent writes, both returned", eval("x",
		[]model.Event{
			model.DoEvent(0, "x", model.Write("v1"), ok),
			model.DoEvent(1, "x", model.Write("v2"), ok),
			model.DoEvent(2, "x", model.Read(), model.Response{}),
		}, [][2]int{{0, 2}, {1, 2}}))
	t.AddRow("mvr", "causally ordered writes, newest only", eval("x",
		[]model.Event{
			model.DoEvent(0, "x", model.Write("v1"), ok),
			model.DoEvent(1, "x", model.Write("v2"), ok),
			model.DoEvent(2, "x", model.Read(), model.Response{}),
		}, [][2]int{{0, 1}, {0, 2}, {1, 2}}))
	t.AddRow("orset", "add observed by remove: removed", eval("s",
		[]model.Event{
			model.DoEvent(0, "s", model.Add("e"), ok),
			model.DoEvent(1, "s", model.Remove("e"), ok),
			model.DoEvent(2, "s", model.Read(), model.Response{}),
		}, [][2]int{{0, 1}, {0, 2}, {1, 2}}))
	t.AddRow("orset", "add concurrent with remove: add wins", eval("s",
		[]model.Event{
			model.DoEvent(0, "s", model.Add("e"), ok),
			model.DoEvent(1, "s", model.Remove("e"), ok),
			model.DoEvent(2, "s", model.Read(), model.Response{}),
		}, [][2]int{{0, 2}, {1, 2}}))
	return out.Emit(t)
}

// figure2 runs the concurrency-inference experiment against the exposing
// and hiding stores.
func figure2(out bench.Output) error {
	t := bench.NewTable("Figure 2 — clients infer concurrency (E2)",
		"store", "read of x at r2", "complying causal A exists?", "hiding provably impossible?")
	for _, name := range []string{"causal", "lww"} {
		rep, err := core.RunFigure2(mvr(name))
		if err != nil {
			return err
		}
		t.AddRow(rep.StoreName, rep.XRead, bench.Verdict(rep.DerivedCausal), rep.HidingImpossible)
	}
	t.Note = "the lww store returns a single winner; the deductive prover shows no causally consistent MVR abstract execution can explain its history"
	return out.Emit(t)
}

// figure3 reports the OCC motivation scenarios.
func figure3(out bench.Output) error {
	cases, err := core.BuildFigure3()
	if err != nil {
		return err
	}
	t := bench.NewTable("Figure 3 — observable causal consistency (E3)",
		"case", "causally consistent?", "OCC?", "hiding impossible?", "description")
	for _, c := range cases {
		t.AddRow(c.Name, bench.Verdict(c.Causal), bench.Verdict(c.OCC), c.HidingImpossible, c.Description)
	}
	t.Note = "3a/3b: singleton reads let the store hide concurrency while staying causal; 3c: Definition 18 witnesses make hiding provably impossible"
	return out.Emit(t)
}

// theorem6 runs the §5.2.2 construction on crafted and random OCC abstract
// executions; the random batch fans out over parallel workers via
// core.Theorem6Batch.
func theorem6(out bench.Output, seed int64, parallel int) error {
	st := func() store.Store { return mvr("causal") }
	t := bench.NewTable("Theorem 6 — construction of α complying with A ∈ OCC (E4)",
		"input", "|H|", "OCC?", "construction complies?", "hb ⊆ vis?")
	for _, rounds := range []int{1, 2, 4, 8} {
		a := gen.WitnessedConcurrency(rounds, true)
		occErr := consistency.CheckOCC(a, spec.MVRTypes())
		rep, err := core.ConstructCompliant(st(), a)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("witnessed-concurrency r=%d", rounds), a.Len(),
			bench.Verdict(occErr), rep.Complies(), bench.Verdict(core.VerifyHBWithinVis(rep, a)))
	}
	cells, err := core.Theorem6Batch(st, gen.Config{Events: 24}, seed, 200, parallel)
	if err != nil {
		return err
	}
	occCount, complied := core.Theorem6Tally(cells)
	t.AddRow("random revealing causal (200 split seeds)", "≤24",
		fmt.Sprintf("%d OCC", occCount), fmt.Sprintf("%d/%d", complied, occCount), "-")
	t.Note = "Theorem 6 predicts 100% compliance on OCC inputs: no consistency model stronger than OCC is satisfiable"
	return out.Emit(t)
}

// theorem12 regenerates the Figure 4 experiment and the message-size
// sweeps; each sweep row is an independent construction cell, so the rows
// compute on parallel workers (core.ForEachCell) and render in input order.
func theorem12(out bench.Output, seed int64, parallel int) error {
	dense := func() store.Store { return mvr("causal") }
	sparse := func() store.Store { return causal.NewWithOptions(spec.MVRTypes(), causal.Options{SparseDeps: true}) }

	one, err := core.RunMessageLowerBound(dense(), core.LowerBoundConfig{N: 5, S: 4, K: 16, Seed: seed})
	if err != nil {
		return err
	}
	single := bench.NewTable("Theorem 12 / Figure 4 — encode g into m_g, decode at a fresh replica (E5)",
		"n", "s", "k", "n'", "g", "|m_g| bits", "bound n'·⌈lg k⌉", "decoded", "ok")
	single.AddRow(one.N, one.S, one.K, one.NPrime, fmt.Sprintf("%v", one.G),
		one.MgBits, one.BoundBits, fmt.Sprintf("%v", one.Decoded), one.DecodeOK)
	if err := out.Emit(single); err != nil {
		return err
	}

	ks := []int{2, 8, 32, 128, 512, 2048, 8192}
	kt := bench.NewTable("Theorem 12 — |m_g| grows with lg k (n=6, s=6)",
		"k", "|m_g| bits", "bound bits", "bits per writer", "decode ok")
	points, err := core.SweepGrid(dense, []int{6}, []int{6}, ks, seed+2, parallel)
	if err != nil {
		return err
	}
	for _, p := range points {
		kt.AddRow(p.K, p.MgBits, p.BoundBits, p.BitsPerCoordinate, p.DecodeOK)
	}
	if err := out.Emit(kt); err != nil {
		return err
	}

	// The dense-vs-sparse comparison rows pair two constructions per cell.
	type pair struct{ dense, sparse *core.LowerBoundResult }
	comparison := func(cfgs []core.LowerBoundConfig) ([]pair, error) {
		rows := make([]pair, len(cfgs))
		err := core.ForEachCell(parallel, len(cfgs), func(i int) error {
			dp, err := core.RunMessageLowerBound(dense(), cfgs[i])
			if err != nil {
				return err
			}
			sp, err := core.RunMessageLowerBound(sparse(), cfgs[i])
			if err != nil {
				return err
			}
			rows[i] = pair{dp, sp}
			return nil
		})
		return rows, err
	}

	var nCfgs []core.LowerBoundConfig
	for _, n := range []int{3, 4, 6, 10, 18, 34} {
		nCfgs = append(nCfgs, core.LowerBoundConfig{N: n, S: 64, K: 64, Seed: seed + 4})
	}
	nRows, err := comparison(nCfgs)
	if err != nil {
		return err
	}
	nt := bench.NewTable("Theorem 12 — |m_g| grows with n' = min{n−2, s−1} (k=64)",
		"n", "s", "n'", "dense |m_g|", "sparse |m_g|", "bound bits")
	for _, r := range nRows {
		nt.AddRow(r.dense.N, 64, r.dense.NPrime, r.dense.MgBits, r.sparse.MgBits, r.dense.BoundBits)
	}
	if err := out.Emit(nt); err != nil {
		return err
	}

	var sCfgs []core.LowerBoundConfig
	for _, s := range []int{2, 3, 5, 9, 17, 33, 64} {
		sCfgs = append(sCfgs, core.LowerBoundConfig{N: 34, S: s, K: 64, Seed: seed + 4})
	}
	sRows, err := comparison(sCfgs)
	if err != nil {
		return err
	}
	st := bench.NewTable("Theorem 12 — the min{n,s} crossover (n=34, k=64)",
		"s", "n'", "dense |m_g|", "sparse |m_g|", "bound bits")
	for _, r := range sRows {
		st.AddRow(r.dense.S, r.dense.NPrime, r.dense.MgBits, r.sparse.MgBits, r.dense.BoundBits)
	}
	st.Note = "dense clocks pay Θ(n·lg k) regardless of s — the §6 gap; sparse dependency encoding tracks min{n−2, s−1}·lg k"
	return out.Emit(st)
}

// section53 contrasts the K-buffer store with the causal store.
func section53(out bench.Output) error {
	t := bench.NewTable("§5.3 — invisible reads are necessary (E6)",
		"store", "invisible-read violations", "read after 1 delivery", "read after K more reads")
	for _, k := range []int{1, 2, 4} {
		st := cli.MustStore("kbuffer", spec.MVRTypes(), store.Options{K: k})
		rep := core.RunSection53(st, k)
		t.AddRow(rep.StoreName, rep.InvisibleReadViolations, rep.ImmediateRead, rep.ExposedAfterKReads)
	}
	rep := core.RunSection53(mvr("causal"), 1)
	t.AddRow(rep.StoreName, rep.InvisibleReadViolations, rep.ImmediateRead, rep.ExposedAfterKReads)
	t.Note = "the K-buffer store avoids the immediate-visibility execution every invisible-reads store admits, so it satisfies a strictly stronger consistency model — at the cost of visible reads"
	return out.Emit(t)
}

// convergence demonstrates Lemma 3 / Corollary 4 across stores and faults.
func convergence(out bench.Output, seed int64) error {
	t := bench.NewTable("Lemma 3 / Corollary 4 — quiescent convergence (E7)",
		"store", "faults", "ops", "converged after quiescence?", "§4 property violations")
	objs := []model.ObjectID{"x", "y", "z"}
	cfgs := []struct {
		name   string
		faults sim.Faults
	}{
		{"none", sim.Faults{}},
		{"dup+reorder", sim.Faults{DupProb: 0.3, Reorder: true}},
	}
	mixed := spec.MVRTypes().With("y", spec.TypeORSet).With("z", spec.TypeCounter)
	stores := []store.Store{
		mvr("causal"),
		cli.MustStore("causal", mixed, store.Options{}),
		causal.NewWithOptions(spec.MVRTypes(), causal.Options{PerUpdateMessages: true}),
		mvr("lww"),
	}
	for _, st := range stores {
		for _, cfg := range cfgs {
			c := sim.NewCluster(st, 4, seed+10)
			c.SetFaults(cfg.faults)
			ops := c.RunRandom(sim.WorkloadConfig{Objects: objs, Steps: 400})
			c.Quiesce()
			t.AddRow(st.Name(), cfg.name, ops, bench.Verdict(c.CheckConverged(objs)),
				len(c.PropertyViolations()))
		}
	}
	return out.Emit(t)
}

// charronBost reports crown dimensions.
func charronBost(out bench.Output, slow bool) error {
	t := bench.NewTable("Charron-Bost extension — crown S_n order dimension (E8)",
		"n", "elements", "linear extensions", "dimension", "vectors characterize?")
	ns := []int{2, 3}
	if slow {
		ns = append(ns, 4)
	}
	for _, n := range ns {
		o := charronbost.Crown(n)
		exts := o.LinearExtensions()
		dim, err := o.Dimension(n + 1)
		if err != nil {
			return err
		}
		realizer, err := o.Realizer(dim)
		if err != nil {
			return err
		}
		check := charronbost.CheckCharacterizes(o, charronbost.Vectors(realizer, o.N))
		t.AddRow(n, o.N, len(exts), dim, bench.Verdict(check))
	}
	t.Note = "dimension n means vector clocks of fewer than n components cannot characterize n-process causality; Theorem 12 generalizes this to arbitrary message formats"
	return out.Emit(t)
}
