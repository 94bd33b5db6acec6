package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"lite/internal/core"
	"lite/internal/retrieval"
	"lite/internal/serve"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// span is one timed call at a layer boundary. Spans of one sampled request
// share req; parent is the span of the layer above. onPath is false for a
// replayed call the request's own path did not make (the core layer under
// a cache hit): it is still reported for its layer, but it is not a child
// of its parent and adds nothing to the request's split.
type span struct {
	Req    int       `json:"req"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // -1 for the root (the HTTP call)
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	OnPath bool      `json:"on_path"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTimes returns each span's self time: its duration minus the
// durations of its on-path children. Replayed children run after their
// parent rather than inside it, so "covered" is defined by the parent
// link, not by interval overlap.
func selfTimes(spans []span) []time.Duration {
	index := make(map[[2]int]int, len(spans))
	for i, s := range spans {
		index[[2]int{s.Req, s.ID}] = i
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 && s.OnPath {
			self[index[[2]int{s.Req, s.Parent}]] -= s.dur()
		}
	}
	return self
}

// traceJob is one sampled read, replayed after its HTTP call returned.
type traceJob struct {
	req        api.RecommendRequest
	resp       api.RecommendResponse
	sent, done time.Time
}

// tracer replays sampled reads layer by layer on its own goroutine (so the
// replays never delay the senders) and keeps every span in memory.
type tracer struct {
	srv *serve.Server // the live snapshot the core layer is replayed on
	rng *rand.Rand
	ctx context.Context

	jobs chan traceJob
	wg   sync.WaitGroup

	mu    sync.Mutex
	nreq  int
	spans []span
	// Work counts at the same boundaries.
	tiers                map[string]int
	survival, uniqStages []float64
	lookups, hits        int
}

// newTracer starts the replay goroutine; capacity bounds how many sampled
// reads may wait for replay (a phase submits at most that many, so submit
// never blocks a sender).
func newTracer(srv *serve.Server, seed int64, capacity int) *tracer {
	t := &tracer{
		srv:   srv,
		rng:   rand.New(rand.NewSource(seed)),
		ctx:   context.Background(),
		jobs:  make(chan traceJob, capacity),
		tiers: map[string]int{},
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for j := range t.jobs {
			t.replay(j)
		}
	}()
	return t
}

// submit queues a sampled read whose HTTP call ran from sent to done.
func (t *tracer) submit(req api.RecommendRequest, resp api.RecommendResponse, sent, done time.Time) {
	t.jobs <- traceJob{req: req, resp: resp, sent: sent, done: done}
}

// finish waits for every queued replay.
func (t *tracer) finish() {
	close(t.jobs)
	t.wg.Wait()
}

// timed runs fn and returns its span.
func timed(req, id, parent int, name string, onPath bool, fn func()) span {
	s := span{Req: req, ID: id, Parent: parent, Name: name, OnPath: onPath, Start: time.Now()}
	fn()
	s.End = time.Now()
	return s
}

// replay splits one sampled read into layers. The HTTP span is the
// client's round trip. The serve span is the server's own timing of
// Server.RecommendCtx for that very request (RecommendResponse.OverheadMS,
// taken to end when the round trip did): replaying it instead would start
// a batch of its own and wait out the whole batch window, which the
// original request may not have. The core chain (Tuner.RecommendSafeCtx,
// or RecommendColdCtx for an unseen app) and its parts (ACG sampling, the
// stage-encoder hoist, the tower; for unseen apps the retrieval embedding
// and lookup) are replayed against the live snapshot, and are children of
// the serve span only when the request missed the cache.
func (t *tracer) replay(j traceJob) {
	t.mu.Lock()
	req := t.nreq
	t.nreq++
	t.mu.Unlock()

	overhead := time.Duration(j.resp.OverheadMS * float64(time.Millisecond))
	spans := []span{
		{Req: req, ID: 0, Parent: -1, Name: "http", Start: j.sent, End: j.done, OnPath: true},
		{Req: req, ID: 1, Parent: 0, Name: "serve.recommend", Start: j.done.Add(-overhead), End: j.done, OnPath: true},
	}
	miss := !j.resp.Cached

	snap := t.srv.Snapshot()
	env, _ := serve.ClusterByName(j.req.Cluster)
	size := math.Exp2(float64(retrieval.SizeBucket(j.req.SizeMB)))
	var tier string
	app := workload.ByName(j.req.App)
	if app == nil {
		var emb []float64
		spans = append(spans, timed(req, 2, 1, "retrieval.embed", miss, func() {
			emb = retrieval.EmbedCode(j.req.Features.Code, j.req.Features.Ops)
		}))
		spans = append(spans, timed(req, 3, 1, "core.recommend_cold", miss, func() {
			sr, _ := snap.Tuner.RecommendColdCtx(t.ctx, emb, size, env)
			tier = string(sr.Tier)
		}))
		var hit bool
		spans = append(spans, timed(req, 4, 3, "retrieval.lookup", miss, func() {
			_, hit = snap.Tuner.Retrieval.Lookup(retrieval.Query{Embedding: emb, SizeMB: size, EnvFP: retrieval.EnvFingerprint(env)})
		}))
		t.record(spans, tier, -1, -1, &hit)
		return
	}

	data := app.Spec.MakeData(size)
	var survival float64
	spans = append(spans, timed(req, 2, 1, "core.recommend", miss, func() {
		sr, _ := snap.Tuner.RecommendSafeCtx(t.ctx, app.Spec, data, env)
		tier = string(sr.Tier)
		survival = float64(len(sr.Ranked)) / float64(snap.Tuner.NumCandidates)
	}))
	var cands []sparksim.Config
	spans = append(spans, timed(req, 3, 2, "core.acg_sample", miss, func() {
		cands = snap.Tuner.ACG.SampleFeasible(app.Spec.Name, data, env, snap.Tuner.NumCandidates, t.rng)
	}))
	var scorer *core.AppScorer
	spans = append(spans, timed(req, 4, 2, "core.hoist", miss, func() {
		scorer = snap.Tuner.Model.NewAppScorer(app.Spec, data, env)
	}))
	preds := make([]float64, len(cands))
	oks := make([]bool, len(cands))
	// ScoreBatchCtx, as the served path calls it: the batched kernel
	// chunked across the scoring pool.
	spans = append(spans, timed(req, 5, 2, "core.tower", miss, func() {
		scorer.ScoreBatchCtx(t.ctx, cands, preds, oks)
	}))
	t.record(spans, tier, survival, uniqueStages(app.Spec, data), nil)
}

// record stores one request's spans and work counts (survival and stages
// are negative when the request did not run the NECS tier; hit is nil when
// it made no retrieval lookup).
func (t *tracer) record(spans []span, tier string, survival, stages float64, hit *bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spans...)
	t.tiers[tier]++
	if survival >= 0 {
		t.survival = append(t.survival, survival)
		t.uniqStages = append(t.uniqStages, stages)
	}
	if hit != nil {
		t.lookups++
		if *hit {
			t.hits++
		}
	}
}

// uniqueStages counts the distinct stages of the expanded plan: the number
// of CNN/GCN forwards the hoist runs.
func uniqueStages(app *sparksim.AppSpec, data sparksim.DataSpec) float64 {
	seen := map[int]bool{}
	for _, s := range app.ExpandedStages(data) {
		seen[s] = true
	}
	return float64(len(seen))
}

// layerSplit aggregates the spans: the mean duration and mean self time of
// each span name (over the spans of that name), and the mean per request
// of the on-path self times summed over every layer, which adds up to the
// mean HTTP round trip of the sampled requests.
type layerSplit struct {
	dur, self map[string]float64 // ms
	count     map[string]int
	pathSum   float64 // ms per request
	requests  int
}

func splitLayers(spans []span) layerSplit {
	ls := layerSplit{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	reqs := map[int]bool{}
	self := selfTimes(spans)
	for i, s := range spans {
		reqs[s.Req] = true
		ls.dur[s.Name] += ms(s.dur())
		ls.self[s.Name] += ms(self[i])
		ls.count[s.Name]++
		if s.OnPath {
			ls.pathSum += ms(self[i])
		}
	}
	for n, c := range ls.count {
		ls.dur[n] /= float64(c)
		ls.self[n] /= float64(c)
	}
	ls.requests = len(reqs)
	if ls.requests > 0 {
		ls.pathSum /= float64(ls.requests)
	}
	return ls
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
