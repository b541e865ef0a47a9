// Package runner is the parallel experiment engine: a worker pool that
// fans independent jobs (simulations) across GOMAXPROCS goroutines
// while keeping the results deterministic.
//
// The guarantees the experiment layer builds on:
//
//   - Results come back in submission order, regardless of which worker
//     finishes first, so a parallel sweep emits byte-identical rows to
//     a serial one.
//   - Errors are captured per job: one failed configuration never kills
//     the rest of a sweep.
//   - With Workers == 1 the jobs run strictly serially, in order, on
//     the calling goroutine — the reference path the equivalence tests
//     compare against.
//
// Cache adds the second half of the engine: a singleflight memo so a
// shared run (the per-application baseline of a relative-metric sweep)
// executes once instead of once per scheme, even when the schemes that
// need it run concurrently.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers is the worker count used when a sweep does not specify
// one: GOMAXPROCS, i.e. as many simulations in flight as the hardware
// has cores to run them.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize clamps a requested worker count to [1, jobs]: 0 (or
// negative) means DefaultWorkers, and there is no point spawning more
// workers than jobs.
func Normalize(workers, jobs int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn over every job on up to workers goroutines (0 means
// DefaultWorkers) and returns one result and one error slot per job, in
// submission order. A panic in fn propagates to the caller; an error is
// recorded in the job's slot and the remaining jobs still run. Once ctx
// is done, jobs not yet started are skipped with ctx.Err() in their
// slots; jobs in flight run to completion.
//
// each, when non-nil, runs as every job finishes or is skipped, with
// the completion count, the job total, the job's index and its result
// or error, so sweeps can stream results as they land. Calls are
// serialized (they hold the pool's lock, so each must not submit work)
// and done rises strictly to the total, but jobs complete in whatever
// order the workers finish them.
func Map[J, R any](ctx context.Context, workers int, jobs []J, fn func(ctx context.Context, i int, job J) (R, error), each func(done, total, i int, r R, err error)) ([]R, []error) {
	results := make([]R, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return results, errs
	}
	workers = Normalize(workers, len(jobs))

	// runJob skips (rather than runs) the job once ctx is cancelled.
	runJob := func(i int) (R, error) {
		if err := ctx.Err(); err != nil {
			var zero R
			return zero, err
		}
		return fn(ctx, i, jobs[i])
	}

	if workers == 1 {
		// Serial reference path: in order, on the calling goroutine.
		for i := range jobs {
			results[i], errs[i] = runJob(i)
			if each != nil {
				each(i+1, len(jobs), i, results[i], errs[i])
			}
		}
		return results, errs
	}

	var (
		next int // next job index to hand out
		done int // jobs finished so far
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				r, err := runJob(i)
				mu.Lock()
				results[i], errs[i] = r, err
				done++
				if each != nil {
					each(done, len(jobs), i, r, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// Cache is a concurrency-safe singleflight memo of successes: DoCtx
// runs fn at most once per key until it succeeds, and concurrent
// callers of the same key block until the first call's result is
// ready and then share it. The zero value is ready to use; a Cache
// must not be copied after first use.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V] // in-flight and succeeded computations
}

// flight is one in-progress or memoized DoCtx computation. err is only
// read after done is closed; a failed flight is removed from the map
// before done closes, so only successes are ever found by later
// callers.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// DoCtx returns the memoized result for key, computing it with fn if
// no earlier call succeeded; it is singleflight with cancellation:
//
//   - Errors are not memoized. A failed computation is forgotten, so
//     the next caller of the key retries instead of replaying a stale
//     failure forever.
//   - A waiter whose ctx ends returns ctx.Err() immediately; the
//     computation it was waiting on keeps running for the others.
//   - A computing caller whose ctx dies mid-fn (fn returning the
//     cancellation error) does not poison the entry: the key is
//     forgotten and later callers compute it fresh.
func (c *Cache[K, V]) DoCtx(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		c.mu.Lock()
		if c.m == nil {
			c.m = make(map[K]*flight[V])
		}
		f := c.m[key]
		if f == nil {
			// This caller owns the computation.
			f = &flight[V]{done: make(chan struct{})}
			c.m[key] = f
			c.mu.Unlock()
			f.val, f.err = fn(ctx)
			c.mu.Lock()
			// Forget failures (cancellation included) — but only our own
			// flight: a Forget during the computation may have installed
			// a successor that must not be clobbered.
			if f.err != nil && c.m[key] == f {
				delete(c.m, key)
			}
			c.mu.Unlock()
			close(f.done)
			return f.val, f.err
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				return f.val, nil
			}
			// The owner failed; loop and retry (perhaps becoming the
			// new owner) rather than inheriting its error.
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// Forget drops key from the memo, so the next DoCtx caller
// computes it fresh. A server whose results persist elsewhere (the
// on-disk result cache) forgets each key once it is durably stored,
// keeping DoCtx a pure in-flight dedup rather than a second,
// unbounded in-memory cache. An in-flight computation is unaffected:
// its waiters still share its outcome.
func (c *Cache[K, V]) Forget(key K) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// Len reports the number of keys in flight or memoized (failed keys
// are forgotten, not counted).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
