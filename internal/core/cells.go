package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachCell runs n independent experiment cells on a pool of parallel
// workers (0 defaults to GOMAXPROCS, 1 runs inline). Each cell writes its
// result into caller-owned, index-addressed storage, so output order never
// depends on scheduling; ForEachCell returns the error of the
// lowest-indexed failing cell, making the error deterministic too. It is
// the shared engine behind the Theorem 12 sweeps, the Theorem 6 batch
// construction, cmd/figures' experiment grids, the explorer's frontier
// levels and the chaos search's.
func ForEachCell(parallel, n int, cell func(i int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		// Inline fast path; stop at the first error like a plain loop.
		for i := 0; i < n; i++ {
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var nextIdx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
