package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lite/internal/core"
	"lite/pkg/api"
)

// blockKey parks a leader computation for the request's cache key that
// does not finish until the returned release is called. The leader is
// injected straight into the cache, so it holds no pipeline slot; requests
// for the same key meanwhile wait on it as singleflight waiters. On release
// the leader reports a context error, so any waiter still live recomputes.
func blockKey(t *testing.T, s *Server, req RecommendRequest) (release func()) {
	t.Helper()
	env, ok := ClusterByName(req.Cluster)
	if !ok {
		t.Fatalf("unknown cluster %q", req.Cluster)
	}
	key := requestKey(req.App, req.SizeMB, env)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.cache.getOrDo(context.Background(), key, func() (RecommendResponse, error) {
			<-gate
			return RecommendResponse{}, context.Canceled
		})
	}()
	waitFor(t, func() bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		return s.cache.inflight[key] != nil
	})
	return func() { close(gate); <-done }
}

// TestEndToEndShedAndCancel exercises the full admission-control story on a
// real server: with MaxInFlight=1, the first request parks as a cache
// singleflight waiter behind a leader that never finishes, holding the only
// pipeline slot, so
//
//   - a second HTTP request is shed with 503 + Retry-After while
//     lite_requests_shed_total increments, and the in-process API sheds
//     with the typed ErrOverloaded, and
//   - cancelling the parked request's context makes it return
//     context.Canceled promptly (it would otherwise wait on the leader
//     forever), releasing the slot.
func TestEndToEndShedAndCancel(t *testing.T) {
	s := newTestServer(t, Options{MaxInFlight: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	parkedReq := RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"}
	release := blockKey(t, s, parkedReq)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := s.RecommendCtx(ctx, parkedReq)
		parked <- err
	}()
	waitFor(t, func() bool { return len(s.inflight) == 1 })

	// Request 2 (different key) must be shed immediately: 503, Retry-After,
	// and the shed counter moves.
	body, _ := json.Marshal(RecommendRequest{App: "KMeans", SizeMB: 1024, Cluster: "C"})
	res, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	var e api.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Error.Code != api.CodeOverloaded {
		t.Fatalf("shed response body: %+v err=%v", e, err)
	}
	if c := s.reg.Counter("lite_requests_shed_total").Value(); c != 1 {
		t.Fatalf("lite_requests_shed_total = %d, want 1", c)
	}
	// The in-process API sheds with the typed error.
	if _, err := s.RecommendCtx(context.Background(),
		RecommendRequest{App: "KMeans", SizeMB: 1024, Cluster: "C"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("in-process shed err = %v, want ErrOverloaded", err)
	}

	// Cancel the parked request: it must return promptly with
	// context.Canceled — the leader is still blocked — and free the slot.
	cancel()
	select {
	case err := <-parked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked request err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request still stuck in the pipeline")
	}
	if c := s.reg.Counter("lite_requests_cancelled_total").Value(); c != 1 {
		t.Fatalf("lite_requests_cancelled_total = %d, want 1", c)
	}
	waitFor(t, func() bool { return len(s.inflight) == 0 })
}

// TestEndToEndCancelWhileOthersComplete: one request is cancelled while it
// waits on a shared computation that never finishes and returns
// context.Canceled promptly; concurrent requests on other keys complete
// normally while that computation is still blocked — a stuck key holds up
// nobody else.
func TestEndToEndCancelWhileOthersComplete(t *testing.T) {
	const others = 4
	// The limit never sheds here; it makes the parked request observable.
	s := newTestServer(t, Options{MaxInFlight: others + 1})

	blocked := RecommendRequest{App: "WordCount", SizeMB: 256, Cluster: "C"}
	release := blockKey(t, s, blocked)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := s.RecommendCtx(ctx, blocked)
		cancelled <- err
	}()
	waitFor(t, func() bool { return len(s.inflight) == 1 })
	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not detach")
	}

	sizes := []float64{512, 1024, 2048, 4096}
	var wg sync.WaitGroup
	resps := make([]RecommendResponse, others)
	errs := make([]error, others)
	for i := 0; i < others; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.RecommendCtx(context.Background(),
				RecommendRequest{App: "KMeans", SizeMB: sizes[i], Cluster: "C"})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent requests on other keys did not complete")
	}
	for i := 0; i < others; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d err = %v", i, errs[i])
		}
		if resps[i].Tier == "" || resps[i].Cached || resps[i].Coalesced {
			t.Fatalf("request %d: tier=%q cached=%v coalesced=%v, want its own scored answer",
				i, resps[i].Tier, resps[i].Cached, resps[i].Coalesced)
		}
	}
}

// gatedCtx is the stampede leader's context: its first Err call (the
// dead-on-arrival check) passes, and every later one — core's checks
// inside the scoring pass — blocks until gate closes, so the leader stays
// in flight for as long as the test needs.
type gatedCtx struct {
	context.Context
	calls atomic.Int32
	gate  chan struct{}
}

func (c *gatedCtx) Err() error {
	if c.calls.Add(1) > 1 {
		<-c.gate
	}
	return c.Context.Err()
}

// parkedCtx is a stampede follower's context: the cache's singleflight
// wait asks for Done as it parks behind the leader, which is what parked
// counts.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked *atomic.Int32
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.parked.Add(1) })
	return c.Context.Done()
}

// TestHotKeyStampedeComputesOnce: 16 concurrent same-key requests with the
// cache on run the tier chain exactly once — one lite_recommendations_total
// increment — and the 15 requests that arrived while it was in flight are
// answered Coalesced from the leader's result. The cache's singleflight
// alone covers the hot-key case.
func TestHotKeyStampedeComputesOnce(t *testing.T) {
	const n = 16
	s := newTestServer(t, Options{})
	req := RecommendRequest{App: "PageRank", SizeMB: 2048, Cluster: "B"}
	recommendations := func() uint64 {
		var sum uint64
		for _, tier := range []core.Tier{core.TierNECS, core.TierRetrieval, core.TierACGRegion, core.TierSafeDefault} {
			sum += s.reg.Counter(`lite_recommendations_total{tier="` + string(tier) + `"}`).Value()
		}
		return sum
	}
	before := recommendations()

	resps := make([]RecommendResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	leader := &gatedCtx{Context: context.Background(), gate: make(chan struct{})}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resps[0], errs[0] = s.RecommendCtx(leader, req)
	}()
	waitFor(t, func() bool { return leader.calls.Load() > 1 }) // leader is scoring

	var parked atomic.Int32
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.RecommendCtx(&parkedCtx{Context: context.Background(), parked: &parked}, req)
		}(i)
	}
	waitFor(t, func() bool { return parked.Load() == n-1 })
	close(leader.gate)
	wg.Wait()

	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d err = %v", i, errs[i])
		}
		if resps[i].Cached {
			t.Fatalf("request %d answered from cache; every request arrived before the leader finished", i)
		}
		if resps[i].Coalesced {
			coalesced++
		}
	}
	if resps[0].Coalesced {
		t.Fatal("the leader's own answer is marked Coalesced")
	}
	if coalesced != n-1 {
		t.Fatalf("%d coalesced answers, want %d", coalesced, n-1)
	}
	if got := recommendations() - before; got != 1 {
		t.Fatalf("lite_recommendations_total moved by %d for one stampede, want 1", got)
	}
}

// TestEndToEndRequestTimeout: with a server-imposed RequestTimeout already
// expired on arrival, the HTTP handler answers 504 and the deadline counter
// moves — the client's own context never fired.
func TestEndToEndRequestTimeout(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: time.Nanosecond, DisableCache: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(RecommendRequest{App: "WordCount", SizeMB: 512, Cluster: "C"})
	res, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	if c := s.reg.Counter("lite_requests_deadline_exceeded_total").Value(); c != 1 {
		t.Fatalf("lite_requests_deadline_exceeded_total = %d, want 1", c)
	}
	if c := s.reg.Counter(`lite_http_requests_total{endpoint="recommend",code="504"}`).Value(); c != 1 {
		t.Fatalf("504 status counter = %d, want 1", c)
	}
}
