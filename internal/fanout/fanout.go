// Package fanout holds the one loop every parallel path of the repository
// hands its independent jobs to: core's payload units in both directions,
// archive.Reader's frames, tacd's batches and archive.Writer's Rel range
// scans, every frame span of a member at once.
//
// archive.Writer's frames are not its jobs. They must leave in order as
// soon as their predecessors have, a bounded window ahead of the sink,
// while Run hands back nothing until every job is done; and its workers
// are long-lived loops, which in a process that also serves requests hold
// their Ps where a goroutine per frame yields between frames.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on at most workers goroutines,
// the caller's included, and returns the error of the lowest index that
// failed. The goroutines claim indices in order and none is claimed after
// a failure; every index below a failed one was claimed before it and
// runs to completion, so the error returned does not depend on the
// schedule. With workers ≤ 1 that is the caller alone running the jobs in
// order up to the first failure. fn must be safe to call from several
// goroutines at once.
func Run(n, workers int, fn func(i int) error) error {
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
