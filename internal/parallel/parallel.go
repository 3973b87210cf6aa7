// Package parallel provides the bounded worker pool underneath every
// concurrent code path of the repository, from experiment repetitions
// (internal/experiments) and whole experiments (cmd/humoexp) to blocking,
// crowd packing and risk scoring.
//
// The pool is deliberately deterministic: work is claimed in index order,
// results are collected by index, and the error reported on failure is the
// one of the lowest failing index — so callers observe the same outcome with
// one worker as with many, and parallel runs can be asserted bit-identical
// to sequential ones.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged. All
// concurrency knobs in this repository share this convention.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n) using at most `workers`
// goroutines (workers <= 0 selects GOMAXPROCS). Callers collect results by
// writing to index i of a pre-sized slice inside fn; distinct indices never
// alias, so no further synchronization is needed.
//
// Indices are claimed in increasing order. Once any call fails, unclaimed
// indices are skipped, in-flight calls run to completion, and the error of
// the lowest failing index is returned — the same error a sequential loop
// would have stopped at, regardless of worker count.
//
// With workers == 1 (or n <= 1) fn runs inline on the calling goroutine,
// making the 1-worker configuration literally sequential.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		// minFailed holds the lowest failing index recorded so far (n =
		// none). An index is skipped only when it is strictly above a
		// recorded failure — i.e. an index a sequential run would never
		// have reached. Skipping on a bare "some failure happened" flag
		// would be racy: a goroutine that claimed a low index before a
		// higher one failed could drop it, losing the lower error.
		minFailed atomic.Int64

		mu       sync.Mutex
		firstErr error
	)
	minFailed.Store(int64(n))
	record := func(i int, err error) {
		mu.Lock()
		if int64(i) < minFailed.Load() {
			minFailed.Store(int64(i))
			firstErr = err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || int64(i) > minFailed.Load() {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every skipped index sits strictly above some recorded failure, and
	// claims are sequential — so every index below the final minimum
	// failing index was executed, and firstErr is exactly the error a
	// sequential loop would have stopped at.
	return firstErr
}

// Map runs fn for every index in [0, n) across at most `workers` goroutines
// and returns the results keyed by index. On error the results are dropped
// and the lowest-indexed error is returned (see ForEach).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
