package core

import (
	"fmt"

	"repro/internal/store"
)

// SweepPoint is one measured row of the Theorem 12 message-size sweep.
type SweepPoint struct {
	N, S, K   int
	NPrime    int
	MgBits    int
	BoundBits int
	// BitsPerCoordinate is MgBits / NPrime, exposing the per-writer lg k
	// growth.
	BitsPerCoordinate float64
	DecodeOK          bool
}

// GridNs, GridSs and GridKs are the (n, s, k) grid msgbound -sweep grid
// measures, the one BENCH_MSGBOUND.json tracks.
var (
	GridNs = []int{3, 4, 6, 10}
	GridSs = []int{2, 3, 5, 9}
	GridKs = []int{2, 16, 128, 1024}
)

// SweepGrid measures the full (n, s, k) cross product — len(ns)·len(ss)·
// len(ks) independent constructions — in row-major (n, then s, then k)
// order. Each cell is an α_g construction against its own simulator
// instance from the st factory, so cells parallelize across ForEachCell
// workers; results land in cell order and are byte-identical for every
// parallel value. Axes of one element make it a sweep of the others:
// growing k at fixed n and s exhibits the lg k growth of Theorem 12, and
// growing n at fixed s and k the min{n−2, s−1} factor — growth is linear
// in n until n−2 crosses s−1, then flat in the bound while the dense-clock
// implementation keeps paying O(n) (the §6 gap between the
// Ω(min{n,s}·lg k) bound and the O(n·k)-style vector-clock upper bound).
func SweepGrid(st func() store.Store, ns, ss, ks []int, seed int64, parallel int) ([]SweepPoint, error) {
	total := len(ns) * len(ss) * len(ks)
	out := make([]SweepPoint, total)
	err := ForEachCell(parallel, total, func(i int) error {
		n := ns[i/(len(ss)*len(ks))]
		s := ss[(i/len(ks))%len(ss)]
		k := ks[i%len(ks)]
		res, err := RunMessageLowerBound(st(), LowerBoundConfig{N: n, S: s, K: k, Seed: seed})
		if err != nil {
			return fmt.Errorf("core: sweep cell (n=%d, s=%d, k=%d): %w", n, s, k, err)
		}
		out[i] = point(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func point(res *LowerBoundResult) SweepPoint {
	p := SweepPoint{
		N: res.N, S: res.S, K: res.K, NPrime: res.NPrime,
		MgBits: res.MgBits, BoundBits: res.BoundBits, DecodeOK: res.DecodeOK,
	}
	if res.NPrime > 0 {
		p.BitsPerCoordinate = float64(res.MgBits) / float64(res.NPrime)
	}
	return p
}
