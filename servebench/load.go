package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lite/pkg/api"
	"lite/pkg/client"
)

// clientTimeout matches the server's request deadline. A failed request
// is recorded with this latency, so it misses any SLO a percentile is
// checked against.
const clientTimeout = 10 * time.Second

// eventKind distinguishes the two kinds of scheduled operation.
type eventKind int

const (
	// evRead is one /v1/recommend call.
	evRead eventKind = iota
	// evFeedback asks for the config the server serves for req (a test-size
	// key) and reports it back through /v1/feedback.
	evFeedback
)

// event is one scheduled operation, due at an offset from its phase start.
type event struct {
	due  time.Duration
	kind eventKind
	req  api.RecommendRequest
	// traced marks a read whose layers the tracer replays.
	traced bool
}

// outcome is what happened to one event.
type outcome struct {
	// late is how long after its due time the event was sent.
	late time.Duration
	// latency is done − due for a read (open-loop timing), and the
	// /v1/feedback round trip for a feedback event.
	latency time.Duration
	// ops and failed count HTTP operations (a feedback event is two).
	ops, failed int
	// code is the first failure's error code ("" on success).
	code string
	// fedBack is true when the feedback was queued for retraining.
	fedBack bool
}

// poissonArrivals returns the offsets of a Poisson process of the given
// rate (per second) over d.
func poissonArrivals(rate float64, d time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// runner drives one booted server over HTTP and checks its answers.
type runner struct {
	b       *booted
	c       *client.Client
	tr      *http.Transport
	senders int
	fb      *updateTracker
	tracer  *tracer // nil in an untraced run
	// liveGen is the server's live generation; an answer naming a later
	// one is invalid.
	liveGen func() uint64

	attempted atomic.Int64
	failed    atomic.Int64
	invalid   atomic.Int64
}

func newRunner(b *booted, fb *updateTracker) *runner {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: time.Second}).DialContext,
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     time.Minute,
	}
	hc := &http.Client{Transport: tr, Timeout: clientTimeout}
	return &runner{
		b:       b,
		c:       client.New(b.url, client.WithHTTPClient(hc)),
		tr:      tr,
		senders: runtime.NumCPU(),
		fb:      fb,
		liveGen: func() uint64 { return b.srv.Snapshot().Gen },
	}
}

// close drops the keep-alive connections.
func (r *runner) close() { r.tr.CloseIdleConnections() }

// runPhase sends events on their schedule with r.senders (= nproc)
// sending goroutines over keep-alive connections: each takes the next event
// in due order, sleeps until it is due, sends it and waits for the answer.
// Reads are timed from their due time, so when both senders are busy the
// wait for a free one shows in the latency instead of being hidden
// (no coordinated omission); lateness, the send time minus the due time,
// is reported as the generator's own figure. Handing each call to a
// goroutine of its own instead was tried: on two vCPUs the extra runnable
// goroutines delayed the pacing itself by up to tens of milliseconds.
func (r *runner) runPhase(events []event) []outcome {
	out := make([]outcome, len(events))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < r.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				sleepUntil(start.Add(events[i].due))
				out[i] = r.send(&events[i], start)
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until t. It calls nanosleep directly: the Go timer
// behind time.Sleep wakes on the netpoller's millisecond timeout on Linux,
// which would add up to a millisecond of generator lateness to every
// request sent after an idle gap, while nanosleep overshoots by the
// kernel's timer slack (~50µs).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// send performs one event and checks the answers.
func (r *runner) send(ev *event, start time.Time) outcome {
	sent := time.Since(start)
	o := outcome{late: sent - ev.due}
	ctx := context.Background()
	resp, err := r.recommend(ctx, ev.req, &o)
	if ev.kind == evRead {
		done := time.Since(start)
		o.latency = done - ev.due
		if o.code != "" {
			o.latency = clientTimeout
		}
		if ev.traced && err == nil && r.tracer != nil {
			r.tracer.submit(ev.req, resp, start.Add(sent), start.Add(done))
		}
		return o
	}
	if err != nil {
		return o // no served config to report
	}
	fbReq := api.FeedbackRequest{App: ev.req.App, SizeMB: ev.req.SizeMB, Cluster: ev.req.Cluster, Config: resp.Config}
	t0 := time.Now()
	ack, ferr := r.c.Feedback(ctx, fbReq)
	acked := time.Now()
	o.latency = acked.Sub(t0)
	o.ops++
	r.attempted.Add(1)
	switch {
	case ferr == nil && ack.Queued:
		o.fedBack = true
		r.fb.acked(acked, fbReq)
	case ferr == nil:
		r.fail(&o, "invalid: feedback ack neither queued nor queue_full", true)
	case client.ErrorCode(ferr) == api.CodeQueueFull:
		// A typed queue-full is a valid answer: the feedback is shed.
	default:
		r.fail(&o, errCode(ferr), false)
	}
	return o
}

// recommend issues one /v1/recommend call, counts it, and checks the
// answer; a transport error, an API error or an invalid answer fails the
// operation.
func (r *runner) recommend(ctx context.Context, req api.RecommendRequest, o *outcome) (api.RecommendResponse, error) {
	o.ops++
	r.attempted.Add(1)
	resp, err := r.c.Recommend(ctx, req)
	if err != nil {
		r.fail(o, errCode(err), false)
		return resp, err
	}
	if reason := checkRecommend(req, resp, r.liveGen()); reason != "" {
		r.fail(o, "invalid: "+reason, true)
		return resp, errors.New(reason)
	}
	return resp, nil
}

func (r *runner) fail(o *outcome, code string, invalid bool) {
	o.failed++
	if o.code == "" {
		o.code = code
	}
	r.failed.Add(1)
	if invalid {
		r.invalid.Add(1)
	}
}

// errCode names a failure: the server's stable error code, or the
// transport error for a request that got no envelope.
func errCode(err error) string {
	if code := client.ErrorCode(err); code != "" {
		return code
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return fmt.Sprintf("http_%d", ae.Status)
	}
	return "transport: " + err.Error()
}

// phaseSummary is the accounting of one phase's reads.
type phaseSummary struct {
	name      string
	rate      float64
	reads     int
	readFails int
	ops       int
	failed    int
	codes     map[string]int
	p50       float64 // ms
	// rtt is the mean round trip (send to answer), ms: the latency less
	// the generator's lateness.
	rtt      float64
	p99      tail // ms
	late     tail // ms
	feedback []float64
}

// summarize folds a phase's outcomes into latency percentiles (ms) and
// failure counts.
func summarize(name string, rate float64, events []event, outs []outcome) phaseSummary {
	s := phaseSummary{name: name, rate: rate, codes: map[string]int{}}
	var lat, late, rtt []float64
	for i, o := range outs {
		s.ops += o.ops
		s.failed += o.failed
		if o.code != "" {
			s.codes[o.code]++
		}
		if events[i].kind == evFeedback {
			if o.fedBack {
				s.feedback = append(s.feedback, ms(o.latency))
			}
			continue
		}
		s.reads++
		if o.failed > 0 {
			s.readFails++
		}
		lat = append(lat, ms(o.latency))
		late = append(late, ms(o.late))
		rtt = append(rtt, ms(o.latency-o.late))
	}
	s.rtt = mean(rtt)
	s.p50 = median(lat)
	s.p99, _ = tailPercentile(lat, 99)
	s.late, _ = tailPercentile(late, 99)
	return s
}

// meetsSLO reports whether a phase met the latency limit: a tail
// percentile its sample supports, within limit; at most 0.1% of reads
// failed; and the generator's own lateness within limit (a backlog that
// grows through the phase shows as lateness that does not).
func (s phaseSummary) meetsSLO(limit time.Duration) bool {
	l := ms(limit)
	return s.p99.pct > 0 && s.p99.value <= l && s.late.value <= l &&
		float64(s.readFails) <= 0.001*float64(s.reads)
}

func (s phaseSummary) String() string {
	var codes []string
	for c, n := range s.codes {
		codes = append(codes, fmt.Sprintf("%s×%d", c, n))
	}
	sort.Strings(codes)
	return fmt.Sprintf("phase %-12s rate=%7.1f/s reads=%d ok=%d failed=%d ops=%d ops_failed=%d p50=%.3fms p%.2f=%.3fms (n=%d) loadgen.late_p%.2f=%.3fms errors=[%s]",
		s.name, s.rate, s.reads, s.reads-s.readFails, s.readFails, s.ops, s.failed,
		s.p50, s.p99.pct, s.p99.value, s.p99.n, s.late.pct, s.late.value, strings.Join(codes, " "))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
