package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- cache cancellation semantics ---

// TestCacheWaiterDetachOnCancel: a waiter whose context is cancelled while
// parked on another caller's computation detaches with ctx.Err() without
// killing the leader — the leader's result still lands in the cache.
func TestCacheWaiterDetachOnCancel(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	gate := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.getOrDo(context.Background(), "k", func() (RecommendResponse, error) {
			<-gate
			return RecommendResponse{Tier: "necs"}, nil
		})
		leaderDone <- err
	}()
	// Wait for the leader to register its in-flight call.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.inflight["k"] != nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.getOrDo(ctx, "k", func() (RecommendResponse, error) {
			t.Error("detached waiter must not compute")
			return RecommendResponse{}, nil
		})
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park on call.done
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not detach")
	}

	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", nil); !hit {
		t.Fatal("leader result was not cached after waiter detached")
	}
}

// TestCacheLeaderCancelledWaiterRetries: a waiter must not inherit the
// *leader's* cancellation — when the shared result is a context error and
// the waiter's own context is still live, it retries and becomes the new
// leader.
func TestCacheLeaderCancelledWaiterRetries(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	gate := make(chan struct{})
	go func() {
		// Leader whose own context was cancelled mid-compute: its fn
		// surfaces the context error.
		c.getOrDo(context.Background(), "k", func() (RecommendResponse, error) {
			<-gate
			return RecommendResponse{}, context.Canceled
		})
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.inflight["k"] != nil
	})

	var retried atomic.Int32
	waiterDone := make(chan struct{})
	var resp RecommendResponse
	var shared bool
	var werr error
	go func() {
		defer close(waiterDone)
		resp, _, shared, werr = c.getOrDo(context.Background(), "k", func() (RecommendResponse, error) {
			retried.Add(1)
			return RecommendResponse{Tier: "necs"}, nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate) // leader hands its cancellation to the waiter

	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after leader cancellation")
	}
	if werr != nil {
		t.Fatalf("waiter err = %v, want success from its own retry", werr)
	}
	if shared {
		t.Fatal("waiter reported shared result; it must have recomputed")
	}
	if resp.Tier != "necs" || retried.Load() != 1 {
		t.Fatalf("retry compute: tier=%q calls=%d", resp.Tier, retried.Load())
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", nil); !hit {
		t.Fatal("retried result was not cached")
	}
}

// TestCacheSingleflightErrorShared: when the leader fails with an ordinary
// (non-context) error, every concurrent sharer receives that same error,
// nothing is cached, and the next request recomputes.
func TestCacheSingleflightErrorShared(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	sentinel := fmt.Errorf("model exploded")
	var calls atomic.Int32
	gate := make(chan struct{})
	fn := func() (RecommendResponse, error) {
		calls.Add(1)
		<-gate
		return RecommendResponse{}, sentinel
	}

	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := c.getOrDo(context.Background(), "k", fn)
			errs <- err
		}()
	}
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.inflight["k"] != nil
	})
	time.Sleep(20 * time.Millisecond) // let followers park
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("error stampede computed %d times, want exactly 1", got)
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, sentinel) {
			t.Fatalf("sharer err = %v, want the leader's error", err)
		}
	}
	if c.len() != 0 {
		t.Fatalf("error result cached (%d entries)", c.len())
	}
	gate2 := make(chan struct{})
	close(gate2)
	if _, _, _, err := c.getOrDo(context.Background(), "k", func() (RecommendResponse, error) {
		return RecommendResponse{Tier: "necs"}, nil
	}); err != nil {
		t.Fatalf("post-error recompute err = %v", err)
	}
}

// waitFor polls cond until true or fails the test after a generous timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
