package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lite/internal/serve"
	"lite/internal/session"
	"lite/pkg/api"
)

// fakeShard is an in-process stand-in for a liteserve shard: it serves the
// JSON /v1/healthz contract, echoes /v1/recommend and /v1/feedback, and applies
// /v1/admin/flip by adopting the requested generation.
type fakeShard struct {
	id         string
	createdAt  string // RFC3339 stamp its fake session list advertises
	srv        *httptest.Server
	gen        atomic.Uint64
	healthy    atomic.Bool
	recs       atomic.Int64
	feeds      atomic.Int64
	sessionOps atomic.Int64
	lastFlip   atomic.Value // serve.FlipRequest
}

func newFakeShard(t *testing.T, id string) *fakeShard {
	t.Helper()
	f := &fakeShard{id: id, createdAt: fmt.Sprintf("2026-01-01T00:00:0%cZ", id[len(id)-1])}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(serve.HealthResponse{Status: "ok", Generation: f.gen.Load(), Follower: id != "shard0"})
	})
	mux.HandleFunc("/v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		f.recs.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"served_by": f.id, "generation": f.gen.Load()})
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		f.feeds.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"queued": true})
	})
	mux.HandleFunc("/v1/admin/flip", func(w http.ResponseWriter, r *http.Request) {
		var req serve.FlipRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.lastFlip.Store(req)
		f.gen.Store(req.Generation)
		json.NewEncoder(w).Encode(serve.FlipResponse{Generation: req.Generation})
	})
	// Session endpoints: enough of the /v1/tuning/sessions contract for the
	// router's placement, fan-out list and promotion-tee paths.
	mux.HandleFunc("POST /v1/tuning/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req api.CreateSessionRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(api.Session{
			ID:  session.FormatID(req.App, req.SizeMB, req.Cluster, 0xabc),
			App: req.App, SizeMB: req.SizeMB, Cluster: req.Cluster, State: "active",
		})
	})
	mux.HandleFunc("GET /v1/tuning/sessions", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.SessionListResponse{Sessions: []api.Session{
			{ID: f.id + "-sess", CreatedAt: f.createdAt},
		}})
	})
	mux.HandleFunc("/v1/tuning/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.sessionOps.Add(1)
		json.NewEncoder(w).Encode(api.Session{ID: r.PathValue("id"), State: "active"})
	})
	mux.HandleFunc("POST /v1/tuning/sessions/{id}/proposal", func(w http.ResponseWriter, r *http.Request) {
		f.sessionOps.Add(1)
		json.NewEncoder(w).Encode(api.ProposalResponse{SessionID: r.PathValue("id"), Trial: 1})
	})
	mux.HandleFunc("POST /v1/tuning/sessions/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		f.sessionOps.Add(1)
		json.NewEncoder(w).Encode(api.ReportResultResponse{
			SessionID: r.PathValue("id"), Trial: 1, Improved: true, Promoted: true,
			Promotion: &api.FeedbackRequest{App: "WordCount", SizeMB: 512, Cluster: "C"},
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func recommendBody(app, cluster string, sizeMB float64) []byte {
	b, _ := json.Marshal(map[string]any{"app": app, "size_mb": sizeMB, "cluster": cluster})
	return b
}

// testBodies is a spread of real (app, size, cluster) keys so requests
// land across several shards.
func testBodies() [][]byte {
	apps := []string{"WordCount", "KMeans", "PageRank", "TeraSort"}
	clusters := []string{"A", "B", "C"}
	sizes := []float64{256, 1024, 4096}
	var out [][]byte
	for i, app := range apps {
		for j, cl := range clusters {
			out = append(out, recommendBody(app, cl, sizes[(i+j)%len(sizes)]))
		}
	}
	return out
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestRoutingKeyUnknownAppPlacement: an app absent from the workload
// registry must still hash to a proper (app, size bucket, env fingerprint)
// key — not the raw-field fallback — so unseen-app traffic served by the
// retrieval tier keeps one shard's cache hot instead of scattering.
func TestRoutingKeyUnknownAppPlacement(t *testing.T) {
	k1 := routingKey(recommendBody("NeverSeenApp", "C", 900))
	k2 := routingKey(recommendBody("NeverSeenApp", "C", 1000))
	if k1 != k2 {
		t.Fatalf("same-bucket sizes routed apart: %q vs %q", k1, k2)
	}
	want, err := serve.RoutingKey("NeverSeenApp", 900, "C")
	if err != nil {
		t.Fatalf("serve.RoutingKey: %v", err)
	}
	if k1 != want {
		t.Fatalf("router key %q diverges from serve.RoutingKey %q", k1, want)
	}
	// The raw-field fallback remains for bodies with no resolvable cluster.
	if got := routingKey(recommendBody("NeverSeenApp", "Nowhere", 900)); got == k1 {
		t.Fatal("unknown-cluster body must not share the placed key")
	}
}

// TestRouterConsistentPlacement: the same body always lands on the same
// shard, and the key spread uses more than one shard.
func TestRouterConsistentPlacement(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	used := map[string]bool{}
	for _, body := range testBodies() {
		var owner string
		for rep := 0; rep < 5; rep++ {
			resp := post(t, front.URL+"/v1/recommend", body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			got := resp.Header.Get("X-Lite-Shard")
			if owner == "" {
				owner = got
			} else if got != owner {
				t.Fatalf("body %s flapped %s -> %s", body, owner, got)
			}
		}
		used[owner] = true
	}
	if len(used) < 2 {
		t.Fatalf("all keys landed on one shard: %v", used)
	}
}

// TestRouterLegacyPaths404: the router has no unversioned routes; they,
// like any unknown path, answer 404 with the standard error envelope and
// are never proxied to a shard.
func TestRouterLegacyPaths404(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	rt := NewRouter(Options{})
	rt.AddShard(shard.id, shard.srv.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body := recommendBody("WordCount", "C", 512)
	for _, path := range []string{"/recommend", "/feedback", "/healthz", "/v1/nope"} {
		resp := post(t, front.URL+path, body)
		var env api.ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
			t.Fatalf("POST %s = (%d, %+v, %v), want the 404 not_found envelope", path, resp.StatusCode, env, err)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh != "" {
			t.Fatalf("POST %s was proxied to shard %s", path, sh)
		}
	}
}

// TestRouterFailoverUnderTraffic kills one shard under concurrent load and
// requires zero client-visible errors: in-window requests re-route to ring
// successors on connection failure, and the health checker ejects the dead
// shard so later requests never try it.
func TestRouterFailoverUnderTraffic(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval:     10 * time.Millisecond,
		ProbeTimeout:      200 * time.Millisecond,
		FailAfter:         2,
		RecoverAfter:      2,
		ReadmitBackoffMin: 10 * time.Millisecond,
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	bodies := testBodies()
	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(front.URL+"/v1/recommend", "application/json",
					bytes.NewReader(bodies[(w+i)%len(bodies)]))
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	victim := shards[1]
	victim.srv.CloseClientConnections()
	victim.srv.Close()

	// Let the health checker notice and traffic continue through it.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures across the shard kill, want 0 (successor re-route)", n)
	}
	if got := rt.Metrics().Counter("lite_fleet_ejections_total").Value(); got < 1 {
		t.Fatalf("dead shard never ejected (ejections=%d)", got)
	}

	// After the window the dead shard is out of the ring: its arc belongs
	// to successors and no request touches it.
	preRecs := victim.recs.Load()
	for _, body := range bodies {
		resp := post(t, front.URL+"/v1/recommend", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-window request failed: %d", resp.StatusCode)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh == victim.id {
			t.Fatalf("request routed to dead shard %s after ejection", sh)
		}
	}
	if victim.recs.Load() != preRecs {
		t.Fatal("dead shard served requests after ejection")
	}
}

// TestRouterEjectAndReadmit: a shard whose /healthz starts failing is
// ejected after FailAfter probes; once healthy again it is re-admitted
// after its backoff plus RecoverAfter good probes, and its old arc comes
// back to it (ring ownership is a pure function of membership).
func TestRouterEjectAndReadmit(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval:     10 * time.Millisecond,
		ProbeTimeout:      200 * time.Millisecond,
		FailAfter:         2,
		RecoverAfter:      2,
		ReadmitBackoffMin: 20 * time.Millisecond,
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}
	upGauge := rt.Metrics().Gauge(fmt.Sprintf("lite_fleet_shard_up{shard=%q}", "shard2"))

	shards[2].healthy.Store(false)
	waitFor("ejection", func() bool { return upGauge.Value() == 0 })
	if rt.ring.Len() != 2 {
		t.Fatalf("ring has %d members after ejection, want 2", rt.ring.Len())
	}

	shards[2].healthy.Store(true)
	waitFor("readmission", func() bool { return upGauge.Value() == 1 })
	if rt.ring.Len() != 3 {
		t.Fatalf("ring has %d members after readmission, want 3", rt.ring.Len())
	}
	if got := rt.Metrics().Counter("lite_fleet_readmissions_total").Value(); got < 1 {
		t.Fatalf("readmissions counter = %d, want >= 1", got)
	}
}

// TestCoordinatorFlipsFleet: when the trainer's generation advances, every
// other live shard is flipped to the trainer's published snapshot at that
// generation, and the fleet /healthz converges to one generation.
func TestCoordinatorFlipsFleet(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval:   10 * time.Millisecond,
		TrainerID:       "shard0",
		TrainerSnapshot: "/fleet/shard0/snapshot.json",
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()

	shards[0].gen.Store(3) // the trainer publishes generation 3

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if shards[1].gen.Load() == 3 && shards[2].gen.Load() == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if shards[1].gen.Load() != 3 || shards[2].gen.Load() != 3 {
		t.Fatalf("followers at generations %d/%d, want 3/3", shards[1].gen.Load(), shards[2].gen.Load())
	}
	flip, _ := shards[1].lastFlip.Load().(serve.FlipRequest)
	if flip.SnapshotPath != "/fleet/shard0/snapshot.json" || flip.Generation != 3 {
		t.Fatalf("flip request = %+v, want trainer snapshot at generation 3", flip)
	}

	// The fleet /healthz reports one generation across live shards.
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var fh FleetHealth
		json.NewDecoder(resp.Body).Decode(&fh)
		resp.Body.Close()
		ok := fh.Status == "ok" && fh.Generation == 3 && len(fh.Shards) == 3
		for _, sh := range fh.Shards {
			ok = ok && sh.Up && sh.Generation == 3
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet health never converged to generation 3: %+v", fh)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFeedbackTee: feedback whose key hashes to a non-trainer shard is
// acked by that owner and teed asynchronously to the trainer, so the
// trainer's update loop sees the full feedback stream.
func TestFeedbackTee(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval: 10 * time.Millisecond,
		TrainerID:     "shard0",
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find a body owned by a non-trainer shard.
	var body []byte
	var owner string
	for _, b := range testBodies() {
		resp := post(t, front.URL+"/v1/feedback", b)
		resp.Body.Close()
		if sh := resp.Header.Get("X-Lite-Shard"); sh != "shard0" {
			body, owner = b, sh
			break
		}
	}
	if body == nil {
		t.Fatal("no test key hashed off the trainer")
	}

	trainerBefore := shards[0].feeds.Load()
	for i := 0; i < 5; i++ {
		resp := post(t, front.URL+"/v1/feedback", body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Lite-Shard"); got != owner {
			t.Fatalf("feedback owner flapped %s -> %s", owner, got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for shards[0].feeds.Load() < trainerBefore+5 {
		if time.Now().After(deadline) {
			t.Fatalf("trainer received %d teed feedbacks, want %d",
				shards[0].feeds.Load()-trainerBefore, 5)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Metrics().Counter("lite_fleet_feedback_teed_total").Value(); got < 5 {
		t.Fatalf("teed counter = %d, want >= 5", got)
	}
}

// TestSessionRoutingAndPromotionTee: session sub-resource requests are
// placed by the routing key embedded in the session ID — always on the
// shard that created the session — and a promotion in a follower's result
// response is teed to the trainer's feedback endpoint. The fleet-wide GET
// merges every shard's list in CreatedAt order.
func TestSessionRoutingAndPromotionTee(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard0"), newFakeShard(t, "shard1"), newFakeShard(t, "shard2")}
	rt := NewRouter(Options{
		ProbeInterval: 10 * time.Millisecond,
		TrainerID:     "shard0",
	})
	for _, f := range shards {
		rt.AddShard(f.id, f.srv.URL)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Create sessions until one lands on a follower (the interesting case:
	// its promotions need the tee to reach the trainer).
	var sessID, owner string
	for _, b := range testBodies() {
		resp := post(t, front.URL+"/v1/tuning/sessions", b)
		var sess api.Session
		json.NewDecoder(resp.Body).Decode(&sess)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh != "shard0" {
			sessID, owner = sess.ID, sh
			break
		}
	}
	if sessID == "" {
		t.Fatal("no session key hashed off the trainer")
	}

	// Every sub-resource call on that ID must land on the owning shard —
	// the router derives the key from the ID alone, no lookup table.
	for _, sub := range []string{"", "/proposal", "/result"} {
		var resp *http.Response
		if sub == "" {
			var err error
			resp, err = http.Get(front.URL + "/v1/tuning/sessions/" + sessID)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			resp = post(t, front.URL+"/v1/tuning/sessions/"+sessID+sub, []byte(`{"trial":1,"seconds":10}`))
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q status %d", sub, resp.StatusCode)
		}
		if sh := resp.Header.Get("X-Lite-Shard"); sh != owner {
			t.Fatalf("sub-resource %q routed to %s, owner is %s", sub, sh, owner)
		}
	}

	// A malformed ID cannot be routed and must fail with the envelope, not
	// land on an arbitrary shard.
	resp := post(t, front.URL+"/v1/tuning/sessions/garbage/proposal", nil)
	var env api.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("malformed id = (%d, %q), want (400, invalid_argument)", resp.StatusCode, env.Error.Code)
	}

	// A create without size_mb is rejected: the router would place it by a
	// key the session's ID cannot reproduce.
	resp = post(t, front.URL+"/v1/tuning/sessions", []byte(`{"app":"WordCount","cluster":"C"}`))
	env = api.ErrorResponse{}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("sizeless create = (%d, %q), want (400, invalid_argument)", resp.StatusCode, env.Error.Code)
	}

	// The follower's result carried a Promotion; the router tees it to the
	// trainer's /v1/feedback asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for shards[0].feeds.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("promotion never teed to the trainer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Metrics().Counter("lite_fleet_session_promotions_teed_total").Value(); got < 1 {
		t.Fatalf("promotion tee counter = %d, want >= 1", got)
	}

	// Fleet-wide list: one merged answer with every shard's sessions in
	// CreatedAt order.
	lresp, err := http.Get(front.URL + "/v1/tuning/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list api.SessionListResponse
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list.Sessions) != len(shards) {
		t.Fatalf("merged list has %d sessions, want %d (one per shard)", len(list.Sessions), len(shards))
	}
	for i := 1; i < len(list.Sessions); i++ {
		if list.Sessions[i-1].CreatedAt > list.Sessions[i].CreatedAt {
			t.Fatalf("merged list out of CreatedAt order: %+v", list.Sessions)
		}
	}
}
