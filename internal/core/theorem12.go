package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/execution"
	"repro/internal/model"
	"repro/internal/store"
)

// Theorem 12: a causally+eventually consistent write-propagating store with
// s MVRs on n replicas must, for every k, send an Ω(min{n−2, s−1}·lg k)-bit
// message in some execution. The proof encodes an arbitrary function
// g: [n'] → [k] (n' = min{n−2, s−1}) into the single message m_g broadcast
// by replica R_{n-1} after it writes y, and then DECODES g from m_g at a
// replica that never saw the g-dependent deliveries — so m_g must carry
// n'·lg k bits. This file runs that construction (the paper's Figure 4)
// against a live store and machine-checks the decoding.

// LowerBoundConfig parameterizes one α_g construction.
type LowerBoundConfig struct {
	// N is the number of replicas (≥ 3).
	N int
	// S is the number of MVR objects (≥ 2): x_1..x_{n'} and y (any further
	// objects are simply unused, as in the paper).
	S int
	// K is the per-writer operation count; g maps into [1..K].
	K int
	// G is the function to encode, G[i] ∈ [1..K] for i ∈ [0..n'-1]. If nil a
	// seeded random g is drawn.
	G []int
	// Seed seeds the random g.
	Seed int64
}

// LowerBoundResult reports the measured construction.
type LowerBoundResult struct {
	N, S, K int
	// NPrime is min{N−2, S−1}, the number of encoding writers.
	NPrime int
	// G is the encoded function (1-based values).
	G []int
	// MgBits is the measured size of m_g in bits.
	MgBits int
	// BoundBits is the information-theoretic content NPrime·⌈lg K⌉ the
	// theorem says some message must carry.
	BoundBits int
	// BetaMaxBits is the largest β-phase message (the g-independent
	// prefix), for contrast with m_g.
	BetaMaxBits int
	// TotalMessages counts every message broadcast in α_g.
	TotalMessages int
	// Decoded is the function recovered from m_g; DecodeOK reports whether
	// it equals G.
	Decoded  []int
	DecodeOK bool
	// Exec is the recorded α_g (β·γ phases; decoding runs on raw payloads).
	Exec *execution.Execution
}

// String summarizes the result as one table row.
func (r *LowerBoundResult) String() string {
	return fmt.Sprintf("n=%d s=%d k=%d n'=%d |m_g|=%d bits bound=%d bits decode=%v",
		r.N, r.S, r.K, r.NPrime, r.MgBits, r.BoundBits, r.DecodeOK)
}

// xObject returns the name of MVR x_i (1-based).
func xObject(i int) model.ObjectID { return model.ObjectID("x" + strconv.Itoa(i)) }

// yObject is the flag MVR the encoder writes.
const yObject = model.ObjectID("y")

// encodeValue renders the paper's write value ⟨j,i⟩.
func encodeValue(j, i int) model.Value {
	return model.Value(strconv.Itoa(j) + "," + strconv.Itoa(i))
}

// parseValue recovers (j, i) from ⟨j,i⟩.
func parseValue(v model.Value) (j, i int, err error) {
	parts := strings.SplitN(string(v), ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("core: malformed encoded value %q", v)
	}
	j, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	i, err = strconv.Atoi(parts[1])
	return j, i, err
}

// RunMessageLowerBound executes α_g = β·γ_g against st and decodes g from
// m_g (Figure 4).
//
// Replica roles (0-based): the decoder is R_0 (it takes no part in α_g, so
// it is in its initial state, like the paper's R_n); the writers are
// R_1..R_{n'}; the encoder is R_{N-1}.
//
//	β:  writer R_i performs writes w_i^1..w_i^K to x_i, broadcasting message
//	    m_i^j after each (Lemma 5 guarantees a pending message exists).
//	γ:  the encoder receives m_i^1..m_i^{g(i)} for each i, reading x_i after
//	    each delivery; it then writes 1 to y and broadcasts m_g.
//
// Decoding g(i) given m_g: a fresh replica receives every β message except
// R_i's (these are g-independent), then m_g — which cannot become visible,
// since its causal past contains w_i^{g(i)} — then R_i's messages one at a
// time, reading y after each. The read of y first returns the flag write
// exactly after the g(i)-th delivery; reading x_i then yields ⟨g(i), i⟩.
func RunMessageLowerBound(st store.Store, cfg LowerBoundConfig) (*LowerBoundResult, error) {
	nPrime := cfg.N - 2
	if cfg.S-1 < nPrime {
		nPrime = cfg.S - 1
	}
	if nPrime < 1 {
		return nil, fmt.Errorf("core: need n ≥ 3 and s ≥ 2 (got n=%d, s=%d)", cfg.N, cfg.S)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: need k ≥ 1, got %d", cfg.K)
	}
	g := cfg.G
	if g == nil {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g = make([]int, nPrime)
		for i := range g {
			g[i] = 1 + rng.Intn(cfg.K)
		}
	}
	if len(g) != nPrime {
		return nil, fmt.Errorf("core: g has %d entries, want n'=%d", len(g), nPrime)
	}
	for i, v := range g {
		if v < 1 || v > cfg.K {
			return nil, fmt.Errorf("core: g(%d)=%d outside [1..%d]", i+1, v, cfg.K)
		}
	}

	res := &LowerBoundResult{
		N: cfg.N, S: cfg.S, K: cfg.K, NPrime: nPrime, G: g,
		BoundBits: nPrime * int(math.Ceil(math.Log2(float64(cfg.K)))),
		Exec:      execution.New(),
	}

	encoderID := model.ReplicaID(cfg.N - 1)
	writers := make([]store.Replica, nPrime+1) // 1-based
	for i := 1; i <= nPrime; i++ {
		writers[i] = st.NewReplica(model.ReplicaID(i), cfg.N)
	}
	encoder := st.NewReplica(encoderID, cfg.N)

	// β: the g-independent write/broadcast phase. beta[i][j] is message
	// m_i^j (1-based in both coordinates); betaPayloads keeps the raw bytes
	// for the decoder.
	beta := make([][]int, nPrime+1)
	betaPayloads := make([][][]byte, nPrime+1)
	for i := 1; i <= nPrime; i++ {
		beta[i] = make([]int, cfg.K+1)
		betaPayloads[i] = make([][]byte, cfg.K+1)
		for j := 1; j <= cfg.K; j++ {
			resp := writers[i].Do(xObject(i), model.Write(encodeValue(j, i)))
			res.Exec.AppendDo(model.ReplicaID(i), xObject(i), model.Write(encodeValue(j, i)), resp)
			payload := writers[i].PendingMessage()
			if payload == nil {
				return nil, fmt.Errorf("core: writer R_%d has no pending message after w_%d^%d (Lemma 5 violated)", i, i, j)
			}
			sent := res.Exec.AppendSend(model.ReplicaID(i), payload)
			writers[i].OnSend()
			beta[i][j] = sent.MsgID
			// The execution's copy: the writer only lent payload until OnSend.
			msg, _ := res.Exec.Message(sent.MsgID)
			betaPayloads[i][j] = msg.Payload
			if bits := len(msg.Payload) * 8; bits > res.BetaMaxBits {
				res.BetaMaxBits = bits
			}
			res.TotalMessages++
		}
	}

	// γ: the encoder absorbs the first g(i) messages of each writer,
	// reading x_i after each delivery, then writes the flag and broadcasts
	// m_g.
	for i := 1; i <= nPrime; i++ {
		for j := 1; j <= g[i-1]; j++ {
			msg, _ := res.Exec.Message(beta[i][j])
			res.Exec.AppendReceive(encoderID, beta[i][j])
			encoder.Receive(msg.Payload)
			got := encoder.Do(xObject(i), model.Read())
			res.Exec.AppendDo(encoderID, xObject(i), model.Read(), got)
			want := model.ReadResponse([]model.Value{encodeValue(j, i)})
			if !got.Equal(want) {
				return nil, fmt.Errorf("core: encoder read of %s after m_%d^%d returned %s, want %s", xObject(i), i, j, got, want)
			}
		}
	}
	resp := encoder.Do(yObject, model.Write("1"))
	res.Exec.AppendDo(encoderID, yObject, model.Write("1"), resp)
	lent := encoder.PendingMessage()
	if lent == nil {
		return nil, fmt.Errorf("core: encoder has no pending message after writing y (Lemma 5 violated)")
	}
	sent := res.Exec.AppendSend(encoderID, lent)
	encoder.OnSend()
	msg, _ := res.Exec.Message(sent.MsgID)
	mg := msg.Payload
	res.TotalMessages++
	res.MgBits = len(mg) * 8

	// Decoding: one fresh replica per coordinate, driven by raw payloads.
	res.Decoded = make([]int, nPrime)
	for i := 1; i <= nPrime; i++ {
		u, err := decodeCoordinate(st, cfg, betaPayloads, mg, i, nPrime)
		if err != nil {
			return nil, fmt.Errorf("core: decode g(%d): %w", i, err)
		}
		res.Decoded[i-1] = u
	}
	res.DecodeOK = true
	for i := range g {
		if g[i] != res.Decoded[i] {
			res.DecodeOK = false
		}
	}
	return res, res.validateDecode()
}

func (r *LowerBoundResult) validateDecode() error {
	if !r.DecodeOK {
		return fmt.Errorf("core: decoded %v, want %v", r.Decoded, r.G)
	}
	return nil
}

// decodeCoordinate runs the paper's d_i transition sequence on a fresh
// replica: deliver all β messages of writers p ≠ i, then m_g (which must
// stay invisible), then R_i's messages in order, reading y after each, until
// the flag appears; x_i then holds ⟨g(i), i⟩.
func decodeCoordinate(st store.Store, cfg LowerBoundConfig, betaPayloads [][][]byte, mg []byte, i, nPrime int) (int, error) {
	dec := st.NewReplica(0, cfg.N)
	for p := 1; p <= nPrime; p++ {
		if p == i {
			continue
		}
		for j := 1; j <= cfg.K; j++ {
			dec.Receive(betaPayloads[p][j])
		}
	}
	dec.Receive(mg)
	if got := dec.Do(yObject, model.Read()); len(got.Values) != 0 {
		// A delta-based causal store must buffer m_g here — its causal past
		// includes w_i^{g(i)}, which the decoder lacks. A full-state store
		// (statesync) instead ships the dependencies bodily inside m_g, so
		// the flag is visible immediately and x_i is directly readable; the
		// decoding still extracts g(i) from m_g alone, just without the
		// incremental-delivery probe. Either way m_g must carry the
		// information, which is the theorem's point.
		xv := dec.Do(xObject(i), model.Read())
		if len(xv.Values) != 1 {
			return 0, fmt.Errorf("flag visible after m_g alone but %s reads %s: causal consistency violated", xObject(i), xv)
		}
		u, ii, err := parseValue(xv.Values[0])
		if err != nil || ii != i {
			return 0, fmt.Errorf("flag visible after m_g alone but %s holds %s: causal consistency violated", xObject(i), xv)
		}
		return u, nil
	}
	for j := 1; j <= cfg.K; j++ {
		dec.Receive(betaPayloads[i][j])
		got := dec.Do(yObject, model.Read())
		if len(got.Values) == 0 {
			continue
		}
		xv := dec.Do(xObject(i), model.Read())
		if len(xv.Values) != 1 {
			return 0, fmt.Errorf("read of %s returned %s, want a single value", xObject(i), xv)
		}
		u, ii, err := parseValue(xv.Values[0])
		if err != nil {
			return 0, err
		}
		if ii != i {
			return 0, fmt.Errorf("read of %s returned value of x%d", xObject(i), ii)
		}
		if u != j {
			return 0, fmt.Errorf("flag appeared after %d deliveries but x_%d holds ⟨%d,%d⟩", j, i, u, ii)
		}
		return u, nil
	}
	return 0, fmt.Errorf("flag never became visible after all %d deliveries", cfg.K)
}
