package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lite/internal/core"
	"lite/internal/instrument"
	"lite/internal/serve"
	"lite/internal/workload"
	"lite/pkg/api"
)

// tiers are the degradation-chain levels core.tier_ratio reports.
var tiers = []string{"necs", "retrieval", "acg-region", "safe-default"}

// layerInputs are the measurements a traced run hands to addLayerMetrics.
type layerInputs struct {
	nominal       phaseSummary
	before, after serverCounters // around the nominal phase
	end           serverCounters // at the end of the run
	mem0, mem1    runtime.MemStats
	fed           []api.FeedbackRequest
	acks          int
	// feedbackHandler is the count and sum (s) of the server's own
	// /v1/feedback handler timings over the run.
	feedbackHandler histogram
}

// addLayerMetrics fills res with the per-layer metrics of a traced run and
// writes its spans to the work directory.
func (r *runner) addLayerMetrics(res *result, w *workloadDef, rc runConfig, in layerInputs) error {
	t := r.tracer
	ls := splitLayers(t.spans)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// Spans: per-layer means and self times.
	put("http.self_ms", "ms", ls.self["http"])
	put("serve.recommend_ms", "ms", ls.dur["serve.recommend"])
	put("serve.self_ms", "ms", ls.self["serve.recommend"])
	put("core.recommend_ms", "ms", ls.dur["core.recommend"])
	put("core.acg_sample_ms", "ms", ls.dur["core.acg_sample"])
	put("core.hoist_ms", "ms", ls.dur["core.hoist"])
	put("core.tower_ms", "ms", ls.dur["core.tower"])
	put("core.rank_ms", "ms", ls.dur["core.recommend"]-ls.dur["core.acg_sample"]-ls.dur["core.hoist"]-ls.dur["core.tower"])
	put("retrieval.embed_us", "us", 1000*ls.dur["retrieval.embed"])
	put("retrieval.lookup_us", "us", 1000*ls.dur["retrieval.lookup"])
	put("trace.layer_sum_ms", "ms", ls.pathSum)
	put("trace.e2e_mean_ms", "ms", in.nominal.rtt)
	put("trace.sampled", "count", float64(ls.requests))

	// Work counts at the same boundaries.
	put("core.unique_stages", "count", mean(t.uniqStages))
	put("core.screen_survival_ratio", "ratio", mean(t.survival))
	total := 0
	for _, n := range t.tiers {
		total += n
	}
	for _, tier := range tiers {
		put("core.tier_ratio."+tier, "ratio", ratio(float64(t.tiers[tier]), float64(total)))
	}
	put("retrieval.hit_ratio", "ratio", ratio(float64(t.hits), float64(t.lookups)))

	// The server's counters over the nominal phase and over the run.
	b, a, e := in.before, in.after, in.end
	put("serve.batch_size_mean", "count", a.batches.meanSince(b.batches))
	put("serve.cache_hit_ratio", "ratio", ratio(float64(a.hits-b.hits), float64(a.hits-b.hits+a.misses-b.misses)))
	put("serve.shed", "count", float64(a.shed-b.shed))
	put("serve.deadline", "count", float64(a.deadline-b.deadline))
	attempts := e.accepted + e.rejected
	put("serve.retrain_attempts", "count", float64(attempts))
	put("serve.hotswap_accept_ratio", "ratio", ratio(float64(e.accepted), float64(attempts)))
	put("serve.update_s", "s", e.updates.meanSince(histogram{}))
	put("serve.feedback_ms", "ms", 1000*ratio(in.feedbackHandler.sum, float64(in.feedbackHandler.count)))

	fsyncs, err := r.scrape("lite_wal_fsyncs")
	if err != nil {
		return err
	}
	put("wal.fsyncs_per_feedback", "ratio", ratio(fsyncs, float64(in.acks)))

	// Set-up parts.
	put("sparksim.collect_s", "s", r.b.times.collect)
	put("core.train_s", "s", r.b.times.train)
	put("retrieval.build_s", "s", r.b.times.build)

	// Feedback work replayed off the serving path.
	runMS, amuS := r.replayFeedback(in.fed, rc.seed)
	put("instrument.run_ms", "ms", runMS)
	put("core.amu_s", "s", amuS)

	// Go runtime, process-wide over the nominal phase.
	m0, m1 := in.mem0, in.mem1
	put("go.alloc_kb_per_req", "KiB", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(in.nominal.reads)))
	put("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	put("go.gc_pause_p99_ms", "ms", gcPauseTail(m0, m1))

	fmt.Printf("trace: %d sampled reads; layer split of the mean round trip: http %.3f, serve %.3f (of which core on misses), acg %.3f, hoist %.3f, tower %.3f, rank %.3f ms; layer sum %.3f ms vs traced mean round trip %.3f ms\n",
		ls.requests, ls.self["http"], ls.self["serve.recommend"], ls.dur["core.acg_sample"], ls.dur["core.hoist"], ls.dur["core.tower"],
		ls.dur["core.recommend"]-ls.dur["core.acg_sample"]-ls.dur["core.hoist"]-ls.dur["core.tower"], ls.pathSum, in.nominal.rtt)
	path := filepath.Join(rc.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, rc.seed))
	if err := writeSpans(path, t.spans); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// replayFeedback times the update loop's work on the queued feedback: one
// instrument.Run per feedback (what absorb does) and, per full batch of the
// first replayBatches, one Adaptive Model Update on a CloneForUpdate of the
// live tuner. It returns the mean run time (ms) and the mean update time
// (s).
func (r *runner) replayFeedback(fed []api.FeedbackRequest, seed int64) (runMS, amuS float64) {
	if len(fed) > replayBatches*updateBatch {
		fed = fed[:replayBatches*updateBatch]
	}
	var runs []instrument.AppInstance
	var runTimes, amuTimes []float64
	snap := r.b.srv.Snapshot()
	rng := rand.New(rand.NewSource(seed))
	for _, f := range fed {
		app := workload.ByName(f.App)
		env, _ := serve.ClusterByName(f.Cluster)
		cfg, _ := configOf(f.Config)
		cfg = core.ForceFeasible(cfg, env)
		start := time.Now()
		run := instrument.Run(app.Spec, app.Spec.MakeData(f.SizeMB), env, cfg)
		runTimes = append(runTimes, ms(time.Since(start)))
		runs = append(runs, run)
		if len(runs) < updateBatch {
			continue
		}
		clone := snap.Tuner.CloneForUpdate(seed)
		var target []*core.Encoded
		for i := range runs {
			target = append(target, clone.EncodeRun(runs[i])...)
		}
		start = time.Now()
		core.AdaptiveModelUpdate(clone.Model, r.b.source, target, clone.AMU, rng)
		amuTimes = append(amuTimes, time.Since(start).Seconds())
		runs = runs[:0]
	}
	return mean(runTimes), mean(amuTimes)
}

// scrape reads one unlabelled series from the server's /metrics exposition
// (0 when the series is absent, as lite_wal_fsyncs is without a WAL).
func (r *runner) scrape(name string) (float64, error) {
	text, err := r.c.Metrics(context.Background())
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, sc.Err()
}

// gcPauseTail is the tail GC pause (ms) of the cycles between two
// MemStats, by the same percentile rule as the latencies; with too few
// cycles for that it is the longest pause.
func gcPauseTail(m0, m1 runtime.MemStats) float64 {
	var pauses []float64
	for gc := m0.NumGC + 1; gc <= m1.NumGC && m1.NumGC-gc < uint32(len(m1.PauseNs)); gc++ {
		pauses = append(pauses, float64(m1.PauseNs[(gc+255)%256])/1e6)
	}
	if t, ok := tailPercentile(pauses, 99); ok {
		return t.value
	}
	longest := 0.0
	for _, p := range pauses {
		if p > longest {
			longest = p
		}
	}
	return longest
}
