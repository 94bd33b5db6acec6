package main

import (
	"sort"
	"sync"
	"time"

	"lite/internal/metrics"
	"lite/pkg/api"
)

// verdict is one retrain outcome as seen from outside the server.
type verdict struct {
	at time.Time
	// consumed is the cumulative number of feedbacks folded or quarantined
	// once this verdict landed.
	consumed uint64
	rejected bool
	// backoff is the retrain backoff the rejection armed.
	backoff time.Duration
}

// updateTracker records feedback acks and retrain verdicts. It watches the
// server's counters (lite_hotswap_{accepted,rejected}_total and the
// folded/quarantined feedback counts) from a polling goroutine; it never
// reaches into the update loop.
type updateTracker struct {
	reg *metrics.Registry

	mu       sync.Mutex
	acks     []time.Time
	fed      []api.FeedbackRequest
	verdicts []verdict

	stopCh chan struct{}
	done   chan struct{}
}

// pollEvery is the verdict-detection resolution.
const pollEvery = 2 * time.Millisecond

func newUpdateTracker(reg *metrics.Registry) *updateTracker {
	t := &updateTracker{reg: reg, stopCh: make(chan struct{}), done: make(chan struct{})}
	go t.watch()
	return t
}

// consumed is the number of feedbacks the update loop has finished with.
// The server increments it after the verdict counter on both the publish
// and the reject path, so a change here means the verdict is complete.
func (t *updateTracker) consumed() uint64 {
	return t.reg.Counter("lite_feedback_folded_total").Value() + t.reg.Counter("lite_feedback_quarantined_total").Value()
}

func (t *updateTracker) watch() {
	defer close(t.done)
	last := t.consumed()
	rejected := t.reg.Counter("lite_hotswap_rejected_total").Value()
	// The backoff gauge is set just after the counters, so a rejection's
	// backoff is read one tick after the rejection is seen.
	backoffOf := -1
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
		}
		t.mu.Lock()
		if backoffOf >= 0 {
			t.verdicts[backoffOf].backoff = time.Duration(t.reg.Gauge("lite_retrain_backoff_seconds").Value() * float64(time.Second))
			backoffOf = -1
		}
		if c := t.consumed(); c != last {
			last = c
			rej := t.reg.Counter("lite_hotswap_rejected_total").Value()
			t.verdicts = append(t.verdicts, verdict{at: time.Now(), consumed: c, rejected: rej != rejected})
			if rej != rejected {
				backoffOf = len(t.verdicts) - 1
			}
			rejected = rej
		}
		t.mu.Unlock()
	}
}

// stop ends the watcher and waits for it.
func (t *updateTracker) stop() {
	close(t.stopCh)
	<-t.done
}

// acked records one queued feedback, in ack order.
func (t *updateTracker) acked(at time.Time, req api.FeedbackRequest) {
	t.mu.Lock()
	t.acks = append(t.acks, at)
	t.fed = append(t.fed, req)
	t.mu.Unlock()
}

// waitVerdicts blocks until n verdicts have been seen or timeout passes,
// and returns the verdicts so far.
func (t *updateTracker) waitVerdicts(n int, timeout time.Duration) []verdict {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		vs := append([]verdict(nil), t.verdicts...)
		t.mu.Unlock()
		if len(vs) >= n || time.Now().After(deadline) {
			return vs
		}
		time.Sleep(pollEvery)
	}
}

// snapshot returns copies of the acks, the queued requests and the
// verdicts.
func (t *updateTracker) snapshot() ([]time.Time, []api.FeedbackRequest, []verdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Time(nil), t.acks...), append([]api.FeedbackRequest(nil), t.fed...), append([]verdict(nil), t.verdicts...)
}

// updateLatencies pairs each verdict with the moment its batch became
// ready to retrain and returns the gaps in seconds. Feedback is consumed in
// the order it was queued (taken as ack order), batch at a time, so verdict i's batch starts after the
// previous verdict's consumed count; it is ready when its batch-th
// feedback is acked, or, when the previous verdict was a rejection, when
// that rejection's backoff expires, whichever is later (a batch held by
// backoff is retrained when the backoff timer fires).
func updateLatencies(acks []time.Time, verdicts []verdict, batch int) []float64 {
	acks = append([]time.Time(nil), acks...)
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	var out []float64
	var prev verdict
	for i, v := range verdicts {
		idx := int(prev.consumed) + batch - 1
		if idx >= len(acks) {
			break
		}
		ready := acks[idx]
		if i > 0 && prev.rejected {
			if expiry := prev.at.Add(prev.backoff); expiry.After(ready) {
				ready = expiry
			}
		}
		out = append(out, v.at.Sub(ready).Seconds())
		prev = v
	}
	return out
}
