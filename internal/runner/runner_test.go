package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapOrder: results come back in submission order even when later
// jobs finish first (earlier jobs wait on later ones via a channel).
func TestMapOrder(t *testing.T) {
	const n = 16
	jobs := make([]int, n)
	for i := range jobs {
		jobs[i] = i
	}
	release := make(chan struct{})
	results, errs := Map(context.Background(), n, jobs, func(_ context.Context, i, job int) (int, error) {
		if i == 0 {
			<-release // job 0 finishes last
		} else if i == n-1 {
			close(release)
		}
		return job * job, nil
	}, nil)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("job %d: unexpected error %v", i, errs[i])
		}
		if results[i] != i*i {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i*i)
		}
	}
}

// TestMapSerialWorker: workers == 1 runs jobs strictly in submission
// order on one goroutine.
func TestMapSerialWorker(t *testing.T) {
	var order []int
	jobs := []int{10, 20, 30, 40}
	results, errs := Map(context.Background(), 1, jobs, func(_ context.Context, i, job int) (int, error) {
		order = append(order, i) // safe: single worker, no concurrency
		return job, nil
	}, nil)
	for i := range order {
		if order[i] != i {
			t.Fatalf("serial execution order %v, want ascending", order)
		}
	}
	for i := range jobs {
		if errs[i] != nil || results[i] != jobs[i] {
			t.Fatalf("job %d: got (%d, %v)", i, results[i], errs[i])
		}
	}
}

// TestMapErrorIsolation: one failing job must not stop the others, and
// its error lands in its own slot.
func TestMapErrorIsolation(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4}
	boom := errors.New("boom")
	var ran atomic.Int32
	results, errs := Map(context.Background(), 2, jobs, func(_ context.Context, i, job int) (int, error) {
		ran.Add(1)
		if job == 2 {
			return 0, fmt.Errorf("job %d: %w", job, boom)
		}
		return job + 100, nil
	}, nil)
	if got := ran.Load(); got != int32(len(jobs)) {
		t.Fatalf("ran %d jobs, want %d", got, len(jobs))
	}
	for i := range jobs {
		if i == 2 {
			if !errors.Is(errs[i], boom) {
				t.Errorf("errs[2] = %v, want wrapped boom", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil", i, errs[i])
		}
		if results[i] != i+100 {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i+100)
		}
	}
}

// TestMapProgress: the callback sees every completion with a strictly
// increasing done count ending at total.
func TestMapProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 12
			jobs := make([]int, n)
			var calls []int
			var mu sync.Mutex
			_, errs := Map(context.Background(), workers, jobs, func(_ context.Context, i, job int) (int, error) {
				return 0, nil
			}, func(done, total, _, _ int, _ error) {
				mu.Lock()
				defer mu.Unlock()
				if total != n {
					t.Errorf("progress total = %d, want %d", total, n)
				}
				calls = append(calls, done)
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
			}
			if len(calls) != n {
				t.Fatalf("%d progress calls, want %d", len(calls), n)
			}
			for i, d := range calls {
				if d != i+1 {
					t.Fatalf("progress sequence %v, want 1..%d", calls, n)
				}
			}
		})
	}
}

// TestMapEmptyAndDefaults: zero jobs and zero workers are both fine.
func TestMapEmptyAndDefaults(t *testing.T) {
	results, errs := Map(context.Background(), 0, nil, func(_ context.Context, i, job int) (int, error) { return 0, nil }, nil)
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty Map returned %d results, %d errs", len(results), len(errs))
	}
	// workers = 0 means DefaultWorkers; the single job still runs.
	r, e := Map(context.Background(), 0, []int{7}, func(_ context.Context, i, job int) (int, error) { return job * 2, nil }, nil)
	if e[0] != nil || r[0] != 14 {
		t.Fatalf("default-workers Map = (%d, %v), want (14, nil)", r[0], e[0])
	}
}

func TestNormalize(t *testing.T) {
	max := DefaultWorkers()
	for _, tc := range []struct{ workers, jobs, want int }{
		{0, 100, max},
		{-3, 100, max},
		{1, 100, 1},
		{8, 3, 3},
		{4, 0, 1},
		{2, 2, 2},
	} {
		if got := Normalize(tc.workers, tc.jobs); got != tc.want {
			t.Errorf("Normalize(%d, %d) = %d, want %d", tc.workers, tc.jobs, got, tc.want)
		}
	}
}

// TestCacheSingleflight: many concurrent callers of one key execute fn
// exactly once and all observe the same result.
func TestCacheSingleflight(t *testing.T) {
	var c Cache[string, int]
	var execs atomic.Int32
	const callers = 32
	var wg sync.WaitGroup
	results := make([]int, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			v, err := c.DoCtx(context.Background(), "base", func(context.Context) (int, error) {
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d saw %d, want 42", i, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.Len())
	}
}

// TestCacheDistinctKeys: distinct keys compute independently and each
// success is memoized, while a failing key runs again on every call
// and is never counted.
func TestCacheDistinctKeys(t *testing.T) {
	var c Cache[int, string]
	var execs atomic.Int32
	bad := errors.New("bad key")
	get := func(k int) (string, error) {
		return c.DoCtx(context.Background(), k, func(context.Context) (string, error) {
			execs.Add(1)
			if k == 99 {
				return "", bad
			}
			return fmt.Sprintf("v%d", k), nil
		})
	}
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, k := range []int{1, 2, 99} {
			v, err := get(k)
			if k == 99 {
				if !errors.Is(err, bad) {
					t.Fatalf("key 99 round %d: err = %v, want bad", round, err)
				}
				continue
			}
			if err != nil || v != fmt.Sprintf("v%d", k) {
				t.Fatalf("key %d round %d: (%q, %v)", k, round, v, err)
			}
		}
	}
	if got := execs.Load(); got != 2+rounds {
		t.Fatalf("fn executed %d times, want %d (once per good key, every round for the bad one)", got, 2+rounds)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d keys, want 2", c.Len())
	}
}

// TestMapCtxCancelSkipsRemaining: once Map's context ends, jobs not yet
// started are skipped with ctx.Err() in their slots while results that
// already landed are kept — in both the serial and the parallel pool.
func TestMapCtxCancelSkipsRemaining(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			const n = 8
			jobs := make([]int, n)
			var ran atomic.Int32
			results, errs := Map(ctx, workers, jobs, func(ctx context.Context, i, _ int) (int, error) {
				ran.Add(1)
				if i == workers-1 { // last job of the first batch
					cancel()
				}
				return i + 1, nil
			}, nil)
			if got := int(ran.Load()); got >= n {
				t.Fatalf("all %d jobs ran despite cancellation", got)
			}
			var kept, skipped int
			for i := range jobs {
				switch {
				case errs[i] == nil:
					kept++
					if results[i] != i+1 {
						t.Errorf("job %d: result %d, want %d", i, results[i], i+1)
					}
				case errors.Is(errs[i], context.Canceled):
					skipped++
					if results[i] != 0 {
						t.Errorf("skipped job %d has result %d", i, results[i])
					}
				default:
					t.Errorf("job %d: unexpected error %v", i, errs[i])
				}
			}
			if kept == 0 || skipped == 0 {
				t.Fatalf("kept %d skipped %d, want both nonzero", kept, skipped)
			}
		})
	}
}

// TestMapEachCtxCancelledJobsStillReported: Map's each fires for skipped jobs
// too, so done still reaches the total after a cancellation.
func TestMapEachCtxCancelledJobsStillReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // everything is skipped
	jobs := []int{1, 2, 3}
	var calls int
	_, errs := Map(ctx, 1, jobs, func(ctx context.Context, i, j int) (int, error) {
		t.Fatal("fn ran under a dead context")
		return 0, nil
	}, func(done, total, i int, r int, err error) {
		calls++
		if done != calls || total != len(jobs) {
			t.Errorf("each(done=%d, total=%d), want (%d, %d)", done, total, calls, len(jobs))
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("each job %d err = %v, want Canceled", i, err)
		}
	})
	if calls != len(jobs) {
		t.Fatalf("each fired %d times, want %d", calls, len(jobs))
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want Canceled", i, err)
		}
	}
}

// TestCacheDoCtxSingleflight: concurrent same-key callers execute fn
// once and share the value.
func TestCacheDoCtxSingleflight(t *testing.T) {
	var c Cache[string, int]
	var execs atomic.Int32
	const callers = 16
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			v, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
				execs.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("DoCtx = (%d, %v), want (7, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.Len())
	}
}

// TestCacheDoCtxErrorNotMemoized: a failed computation is forgotten —
// the next caller of the same key retries and can succeed.
func TestCacheDoCtxErrorNotMemoized(t *testing.T) {
	var c Cache[string, int]
	var execs atomic.Int32
	boom := errors.New("transient")
	get := func() (int, error) {
		return c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
			if execs.Add(1) == 1 {
				return 0, boom
			}
			return 99, nil
		})
	}
	if _, err := get(); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v, want transient", err)
	}
	v, err := get()
	if err != nil || v != 99 {
		t.Fatalf("retry = (%d, %v), want (99, nil)", v, err)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("fn executed %d times, want 2 (error not memoized)", got)
	}
}

// TestCacheDoCtxWaiterCancelDoesNotPoison: the satellite contract — a
// caller whose context dies while waiting on another's computation
// returns its own ctx.Err() promptly, and the entry stays good for
// later callers (the computation completes and is memoized).
func TestCacheDoCtxWaiterCancelDoesNotPoison(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})

	ownerDone := make(chan error, 1)
	go func() {
		_, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 41, nil
		})
		ownerDone <- err
	}()
	<-started

	// A waiter joins the in-flight computation, then its ctx dies.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.DoCtx(ctx, "k", func(context.Context) (int, error) {
			t.Error("waiter recomputed an in-flight key")
			return 0, nil
		})
		waiterDone <- err
	}()
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want Canceled", err)
	}

	// The computation finishes for everyone else and is memoized.
	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner err = %v", err)
	}
	v, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
		t.Error("memoized key recomputed")
		return 0, nil
	})
	if err != nil || v != 41 {
		t.Fatalf("later caller = (%d, %v), want (41, nil)", v, err)
	}
}

// TestCacheDoCtxOwnerCancelDoesNotPoison: a computing caller whose
// context dies mid-Do (fn returns the cancellation) must not leave the
// key poisoned — a later caller computes fresh and gets the real value.
func TestCacheDoCtxOwnerCancelDoesNotPoison(t *testing.T) {
	var c Cache[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.DoCtx(ctx, "k", func(ctx context.Context) (int, error) {
		// Reached only if the pre-check raced the cancel; either way the
		// computation observes its dead context.
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner err = %v, want Canceled", err)
	}

	var execs atomic.Int32
	v, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
		execs.Add(1)
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("later caller = (%d, %v), want (42, nil)", v, err)
	}
	if execs.Load() != 1 {
		t.Fatal("later caller did not recompute the forgotten key")
	}
}

// TestCacheDoCtxWaiterRetriesAfterOwnerFailure: a waiter does not
// inherit the owner's error; it retries the computation itself.
func TestCacheDoCtxWaiterRetriesAfterOwnerFailure(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("owner failed")

	go func() {
		c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started

	waiterDone := make(chan struct{})
	var v int
	var err error
	go func() {
		defer close(waiterDone)
		v, err = c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
			return 5, nil
		})
	}()
	close(release)
	<-waiterDone
	if err != nil || v != 5 {
		t.Fatalf("waiter retry = (%d, %v), want (5, nil)", v, err)
	}
}

// TestCacheForget: a forgotten key recomputes on the next DoCtx call.
func TestCacheForget(t *testing.T) {
	var c Cache[string, int]
	var execs atomic.Int32
	get := func() int {
		v, err := c.DoCtx(context.Background(), "k", func(context.Context) (int, error) {
			return int(execs.Add(1)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get() != 1 || get() != 1 {
		t.Fatal("memoization broken before Forget")
	}
	c.Forget("k")
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Forget, want 0", c.Len())
	}
	if get() != 2 {
		t.Fatal("forgotten key not recomputed")
	}
}

// TestMapEachCompletionHook: Map's each sees every job exactly once with a
// strictly increasing done count, the matching index and that job's
// result or error — in both the serial and the parallel pool.
func TestMapEachCompletionHook(t *testing.T) {
	bad := errors.New("job 3")
	for _, workers := range []int{1, 4} {
		jobs := []int{10, 20, 30, 40, 50}
		var (
			mu       sync.Mutex
			lastDone int
			seen     = map[int]int{} // job index -> result reported to each
			errAt    = -1
		)
		results, errs := Map(context.Background(), workers, jobs, func(_ context.Context, i int, j int) (int, error) {
			if i == 3 {
				return 0, bad
			}
			return j * 2, nil
		}, func(done, total, i int, r int, err error) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(jobs) {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, len(jobs))
			}
			if done != lastDone+1 {
				t.Errorf("workers=%d: done jumped %d -> %d", workers, lastDone, done)
			}
			lastDone = done
			if _, dup := seen[i]; dup {
				t.Errorf("workers=%d: job %d reported twice", workers, i)
			}
			seen[i] = r
			if err != nil {
				errAt = i
			}
		})
		if lastDone != len(jobs) || len(seen) != len(jobs) {
			t.Fatalf("workers=%d: each saw %d jobs (done=%d), want %d", workers, len(seen), lastDone, len(jobs))
		}
		if errAt != 3 || !errors.Is(errs[3], bad) {
			t.Fatalf("workers=%d: error reported at %d (errs[3]=%v), want job 3", workers, errAt, errs[3])
		}
		for i, j := range jobs {
			want := j * 2
			if i == 3 {
				want = 0
			}
			if results[i] != want || seen[i] != want {
				t.Fatalf("workers=%d: job %d result %d / hook %d, want %d", workers, i, results[i], seen[i], want)
			}
		}
	}
}
