package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lite/internal/metrics"
	"lite/pkg/api"
)

// Run shape. A run ends with up to probeBatches update batches, their
// feedbacks probeGap apart, sent to a server no longer taking reads.
const (
	setupRepeats = 3
	searchRungs  = 4
	probeBatches = 4
	probeGap     = 10 * time.Millisecond
	probeBudget  = 6 * time.Second
	// verdictTimeout bounds the wait for one retrain verdict.
	verdictTimeout = 30 * time.Second
	// replayBatches bounds how many feedback batches the traced run replays
	// through Adaptive Model Update.
	replayBatches = 2
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	workdir string
}

// runWorkload boots the server (setupRepeats times untraced, keeping the
// last), runs the quality pass, warms the cache, runs the nominal-rate
// phase, the max-rate search and the update probe, and assembles the
// workload's metrics.
func runWorkload(w *workloadDef, rc runConfig) (result, error) {
	res := result{Metrics: map[string]metric{}}
	repeats := setupRepeats
	if rc.traced {
		repeats = 1
	}
	var setups []float64
	var b *booted
	for i := 0; i < repeats; i++ {
		nb, err := boot(w.dep, rc.workdir)
		if err != nil {
			return res, err
		}
		setups = append(setups, nb.times.total)
		fmt.Printf("setup %d: %.3fs (collect %.3fs, train %.3fs, retrieval build %.4fs)\n",
			i+1, nb.times.total, nb.times.collect, nb.times.train, nb.times.build)
		if i == repeats-1 {
			b = nb
		} else if err := nb.stop(); err != nil {
			return res, err
		}
	}
	reg := b.srv.Metrics()
	r := newRunner(b, newUpdateTracker(reg))
	err := r.measure(w, rc, &res, setups)
	if err == nil && !rc.traced {
		// Live heap with the server still up, harness included. The second
		// GC empties the sync.Pool victim caches the first one leaves.
		runtime.GC()
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		res.Metrics["heap_mb"] = metric{Value: float64(mem.HeapAlloc) / (1 << 20), Unit: "MiB"}
	}
	r.close()
	r.fb.stop()
	if serr := b.stop(); err == nil {
		err = serr
	}
	res.Attempted = int(r.attempted.Load())
	res.Failed = int(r.failed.Load())
	res.Correct = r.invalid.Load() == 0
	return res, err
}

// measure runs everything after set-up and fills res.Metrics.
func (r *runner) measure(w *workloadDef, rc runConfig, res *result, setups []float64) error {
	ctx := context.Background()
	reg := r.b.srv.Metrics()
	rng := rand.New(rand.NewSource(rc.seed))
	next := w.mix(rng)

	speedup, err := r.qualityPass(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("quality: speedup_vs_default = %.6f (45 keys, before the timed phases)\n", speedup)
	if w.warm != nil {
		var o outcome
		for _, req := range w.warm() {
			r.recommend(ctx, req, &o)
		}
	}

	nominal := time.Duration(float64(rc.measure) * w.nominalShare)
	evs := schedule(w.rate, nominal, next, rng, traceEvery(w, rc))
	if rc.traced {
		r.tracer = newTracer(r.b.srv, rc.seed, len(evs))
	}
	in := layerInputs{before: counters(reg)}
	runtime.ReadMemStats(&in.mem0)
	nom := summarize("nominal", w.rate, evs, r.runPhase(evs))
	runtime.ReadMemStats(&in.mem1)
	in.after = counters(reg)
	fmt.Println(nom)

	maxRate, steps := r.searchMaxRate(w, rc.measure-nominal, next, rng)
	for _, s := range steps {
		fmt.Println(s)
	}
	feedbackLat := r.updateProbe()
	after, err := r.qualityPass(ctx)
	if err != nil {
		return err
	}
	acks, fed, verdicts := r.fb.snapshot()
	updates := updateLatencies(acks, verdicts, updateBatch)
	end := counters(reg)
	fmt.Printf("feedback: acked=%d retrain_attempts=%d accepted=%d rejected=%d quarantined=%d update_s samples=%v\n",
		len(acks), end.accepted+end.rejected, end.accepted, end.rejected, end.quarantined, updates)
	fmt.Printf("quality: speedup_vs_default = %.6f after the update probe (generation %d)\n", after, r.b.srv.Snapshot().Gen)

	// Every run prints these; only traced runs record them, ungated:
	// README.md ("Reported, not gated") gives their run-to-run spread.
	fbTail, ok := tailPercentile(feedbackLat, 99)
	if !ok {
		return fmt.Errorf("only %d feedback acks: too few for a tail percentile", len(feedbackLat))
	}
	if len(updates) == 0 {
		return fmt.Errorf("no retrain verdict observed")
	}
	fmt.Printf("not gated: p50_ms = %.6g ms (median of %d reads); p99_ms = %.6g ms (p%.2f of %d reads); feedback_p99_ms = %.6g ms (p%.2f of %d acks); max_rps_at_slo = %.6g req/s; update_s = %.6g s (median of %d)\n",
		nom.p50, nom.reads, nom.p99.value, nom.p99.pct, nom.p99.n, fbTail.value, fbTail.pct, fbTail.n, maxRate, median(updates), len(updates))
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if rc.traced {
		r.tracer.finish()
		h := reg.Histogram(`lite_http_request_seconds{endpoint="feedback"}`, nil)
		in.nominal, in.end, in.fed, in.acks = nom, end, fed, len(acks)
		in.feedbackHandler = histogram{count: h.Count(), sum: h.Sum()}
		put("e2e.p50_ms", "ms", nom.p50)
		put("e2e.p99_ms", "ms", nom.p99.value)
		put("e2e.feedback_p99_ms", "ms", fbTail.value)
		put("e2e.max_rps_at_slo", "req/s", maxRate)
		put("e2e.update_s", "s", median(updates))
		return r.addLayerMetrics(res, w, rc, in)
	}
	put("setup_s", "s", median(setups))
	put("speedup_vs_default", "x", speedup)
	return nil
}

// traceEvery is the workload's trace sampling interval in a traced run,
// and 0 (no tracing) otherwise.
func traceEvery(w *workloadDef, rc runConfig) int {
	if rc.traced {
		return w.traceEvery
	}
	return 0
}

// searchMaxRate finds the highest read rate whose phase meets the SLO on
// a ladder of rates a factor √2 apart, from the workload's searchFrom
// rate: it climbs while rungs pass (descends while they fail), up to
// searchRungs rungs of budget/searchRungs each, and stops at the first rung
// whose outcome differs from the one before. The result is the rate where
// the tail latency crosses the SLO, interpolated between those two rungs.
// A bisection was tried first: one steal-time stall failing one short step
// sent it into the wrong half, and its results were bimodal (6,758 vs
// 10,130 req/s on hot-keys); so was a ladder a factor 2 apart (11,100 vs
// 19,720 req/s), whose rungs straddled the knee too coarsely.
func (r *runner) searchMaxRate(w *workloadDef, budget time.Duration, next func() api.RecommendRequest, rng *rand.Rand) (float64, []phaseSummary) {
	step := budget / searchRungs
	var steps []phaseSummary
	var prev phaseSummary
	var prevOK bool
	rate := w.searchFrom
	for i := 0; i < searchRungs; i++ {
		evs := schedule(rate, step, next, rng, 0)
		s := summarize(fmt.Sprintf("search-%d", i+1), rate, evs, r.runPhase(evs))
		steps = append(steps, s)
		ok := s.meetsSLO(slo)
		switch {
		case i > 0 && ok != prevOK && prevOK:
			return crossing(prev.rate, rate, prev, s, ms(slo)), steps
		case i > 0 && ok != prevOK:
			return crossing(rate, prev.rate, s, prev, ms(slo)), steps
		}
		prev, prevOK = s, ok
		if ok {
			rate *= math.Sqrt2
		} else {
			rate /= math.Sqrt2
		}
	}
	if prevOK {
		return prev.rate, steps // every rung passed: the top rung is a lower bound
	}
	return 0, steps
}

// crossing interpolates, between the best passing rate lo and the lowest
// failing rate hi, the rate at which the tail latency reaches limit (ms),
// linearly in the logarithm of the tail: past the knee the tail grows by
// orders of magnitude, and a linear interpolation would then always land
// next to lo. Without a failing rate, or when the failing step failed on
// errors or lateness rather than on its tail, it is lo.
func crossing(lo, hi float64, loS, hiS phaseSummary, limit float64) float64 {
	if lo == 0 || hi == 0 || hi < lo || hiS.p99.value <= limit || loS.p99.value <= 0 {
		return lo
	}
	f := math.Log(limit/loS.p99.value) / math.Log(hiS.p99.value/loS.p99.value)
	return lo + f*(hi-lo)
}

// updateProbe sends up to probeBatches update batches, each as feedbacks
// probeGap apart, and waits for each batch's retrain verdict before the
// next. A rejection arms a backoff that doubles with each consecutive one;
// past the second batch the probe waits it out only while the whole probe
// stays within probeBudget, so a run of rejections shortens the probe
// instead of stretching the run. It returns the feedback ack latencies (ms).
func (r *runner) updateProbe() []float64 {
	var lat []float64
	k := 0
	_, _, before := r.fb.snapshot()
	start := time.Now()
	for i := 0; i < probeBatches; i++ {
		if i > 0 {
			time.Sleep(2 * pollEvery) // let the watcher read the backoff
			_, _, vs := r.fb.snapshot()
			backoff := vs[len(vs)-1].backoff
			// Two batches always run: 16 acks are the fewest the ack tail
			// needs (ten beyond its percentile).
			if i >= 2 && time.Since(start)+backoff > probeBudget {
				break
			}
			time.Sleep(backoff)
		}
		evs := make([]event, updateBatch)
		for j := range evs {
			evs[j] = event{due: time.Duration(j) * probeGap, kind: evFeedback, req: feedbackKey(k)}
			k++
		}
		s := summarize(fmt.Sprintf("probe-%d", i+1), 0, evs, r.runPhase(evs))
		fmt.Printf("phase %-12s feedbacks=%d queued=%d ops=%d ops_failed=%d errors=%v\n", s.name, len(evs), len(s.feedback), s.ops, s.failed, s.codes)
		lat = append(lat, s.feedback...)
		if want := len(before) + i + 1; len(r.fb.waitVerdicts(want, verdictTimeout)) < want {
			break
		}
	}
	return lat
}

// serverCounters are the server's own counters the metrics derive from.
type serverCounters struct {
	hits, misses, shed, deadline    uint64
	accepted, rejected, quarantined uint64
	batches, updates                histogram
}

// histogram is a histogram's count and sum at one moment.
type histogram struct {
	count uint64
	sum   float64
}

func (h histogram) meanSince(base histogram) float64 {
	return ratio(h.sum-base.sum, float64(h.count-base.count))
}

func counters(reg *metrics.Registry) serverCounters {
	c := func(name string) uint64 { return reg.Counter(name).Value() }
	h := func(name string) histogram {
		x := reg.Histogram(name, nil)
		return histogram{count: x.Count(), sum: x.Sum()}
	}
	return serverCounters{
		hits:        c("lite_cache_hits_total"),
		misses:      c("lite_cache_misses_total"),
		shed:        c("lite_requests_shed_total"),
		deadline:    c("lite_requests_deadline_exceeded_total"),
		accepted:    c("lite_hotswap_accepted_total"),
		rejected:    c("lite_hotswap_rejected_total"),
		quarantined: c("lite_feedback_quarantined_total"),
		batches:     h("lite_batch_size"),
		updates:     h("lite_update_seconds"),
	}
}
