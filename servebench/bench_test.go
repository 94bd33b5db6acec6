package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"lite/internal/sparksim"
	"lite/pkg/api"
	"lite/pkg/client"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n         int
		want      float64
		wantValue float64
		wantPct   float64
	}{
		{n: 1000, want: 99, wantValue: 990, wantPct: 99},     // 10 samples beyond rank 990
		{n: 2000, want: 99, wantValue: 1980, wantPct: 99},    // 20 beyond: p99 proper
		{n: 100, want: 99, wantValue: 90, wantPct: 90},       // lowered to leave 10 beyond
		{n: 11, want: 99, wantValue: 1, wantPct: 100.0 / 11}, // the smallest supported sample
		{n: 100, want: 50, wantValue: 50, wantPct: 50},
	} {
		got, ok := tailPercentile(seq(c.n), c.want)
		if !ok || got.value != c.wantValue || math.Abs(got.pct-c.wantPct) > 1e-9 || got.n != c.n {
			t.Errorf("tailPercentile(n=%d, p%v) = %+v, %v; want value %v at p%v", c.n, c.want, got, ok, c.wantValue, c.wantPct)
		}
	}
	if _, ok := tailPercentile(seq(10), 99); ok {
		t.Error("10 samples cannot leave 10 beyond any percentile, want ok=false")
	}
}

// okAnswer is a valid /v1/recommend answer for cluster C at generation 0.
func okAnswer() api.RecommendResponse {
	cfg := sparksim.DefaultConfig()
	m := make(map[string]float64, sparksim.NumKnobs)
	for i, k := range sparksim.Knobs {
		m[k.Name] = cfg[i]
	}
	return api.RecommendResponse{App: "WordCount", Cluster: "C", Config: m, Tier: "necs"}
}

// slowServer answers every recommend after delay with answer.
func slowServer(t *testing.T, delay time.Duration, answer api.RecommendResponse) *runner {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		json.NewEncoder(w).Encode(answer)
	}))
	t.Cleanup(ts.Close)
	return &runner{c: client.New(ts.URL), senders: 2, liveGen: func() uint64 { return 0 }}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const delay = 40 * time.Millisecond
	r := slowServer(t, delay, okAnswer())
	req := api.RecommendRequest{App: "WordCount", Cluster: "C"}
	// Four reads due at once on two senders: the second pair waits a whole
	// service time for a free sender, and that wait is both their lateness
	// and part of their latency.
	evs := make([]event, 4)
	for i := range evs {
		evs[i] = event{kind: evRead, req: req}
	}
	outs := r.runPhase(evs)
	var late int
	for i, o := range outs {
		if o.failed != 0 {
			t.Fatalf("read %d failed: %s", i, o.code)
		}
		if o.latency < o.late+delay {
			t.Errorf("read %d: latency %v < lateness %v + service %v; latency must be timed from the due time", i, o.latency, o.late, delay)
		}
		if o.late >= delay*3/4 {
			late++
		}
	}
	if late != 2 {
		t.Errorf("%d reads waited a service time for a sender, want 2 (two senders, four reads)", late)
	}
	s := summarize("t", 0, evs, outs)
	if s.reads != 4 || s.readFails != 0 || s.p99.pct != 0 {
		// Four samples support no tail percentile; the summary reports
		// none rather than inventing one.
		t.Errorf("summary = %+v", s)
	}

	// Reads due in the future wait for their due time and are not late.
	evs = []event{{due: 30 * time.Millisecond, kind: evRead, req: req}}
	start := time.Now()
	outs = r.runPhase(evs)
	if el := time.Since(start); el < 30*time.Millisecond+delay {
		t.Errorf("phase took %v, want at least due + service", el)
	}
	if outs[0].late > 10*time.Millisecond {
		t.Errorf("on-time read counted %v late", outs[0].late)
	}
}

func TestInvalidAnswerFailsTheOperation(t *testing.T) {
	bad := okAnswer()
	delete(bad.Config, sparksim.Knobs[0].Name)
	r := slowServer(t, 0, bad)
	outs := r.runPhase([]event{{kind: evRead, req: api.RecommendRequest{App: "WordCount", Cluster: "C"}}})
	if outs[0].failed != 1 || !strings.HasPrefix(outs[0].code, "invalid: ") || r.invalid.Load() != 1 {
		t.Errorf("outcome %+v, invalid=%d: want one invalid failure", outs[0], r.invalid.Load())
	}

	for _, c := range []struct {
		name   string
		mutate func(*api.RecommendResponse)
		gen    uint64
	}{
		{"unknown tier", func(a *api.RecommendResponse) { a.Tier = "oracle" }, 0},
		{"non-finite knob", func(a *api.RecommendResponse) { a.Config[sparksim.Knobs[1].Name] = math.NaN() }, 0},
		{"unpublished generation", func(a *api.RecommendResponse) { a.Generation = 3 }, 2},
		{"infeasible config", func(a *api.RecommendResponse) { a.Config[sparksim.Knobs[sparksim.KnobExecutorMemory].Name] = 1e9 }, 0},
	} {
		a := okAnswer()
		c.mutate(&a)
		if reason := checkRecommend(api.RecommendRequest{Cluster: "C"}, a, c.gen); reason == "" {
			t.Errorf("%s: answer accepted", c.name)
		}
	}
	if reason := checkRecommend(api.RecommendRequest{Cluster: "C"}, okAnswer(), 0); reason != "" {
		t.Errorf("valid answer rejected: %s", reason)
	}
}

func TestSelfTimesSubtractOnPathChildren(t *testing.T) {
	at := time.Unix(0, 0)
	sp := func(req, id, parent int, name string, startMS, endMS int, onPath bool) span {
		return span{Req: req, ID: id, Parent: parent, Name: name, OnPath: onPath,
			Start: at.Add(time.Duration(startMS) * time.Millisecond), End: at.Add(time.Duration(endMS) * time.Millisecond)}
	}
	spans := []span{
		// A miss: http 10 ⊃ serve 8 ⊃ core 5 ⊃ acg 1 + hoist 2 + tower 1.
		sp(0, 0, -1, "http", 0, 10, true),
		sp(0, 1, 0, "serve.recommend", 1, 9, true),
		sp(0, 2, 1, "core.recommend", 20, 25, true),
		sp(0, 3, 2, "core.acg_sample", 30, 31, true),
		sp(0, 4, 2, "core.hoist", 31, 33, true),
		sp(0, 5, 2, "core.tower", 33, 34, true),
		// A hit: the replayed core is off the request's path.
		sp(1, 0, -1, "http", 0, 4, true),
		sp(1, 1, 0, "serve.recommend", 1, 2, true),
		sp(1, 2, 1, "core.recommend", 40, 46, false),
	}
	want := []float64{2, 3, 1, 1, 2, 1, 3, 1, 6}
	for i, d := range selfTimes(spans) {
		if got := ms(d); got != want[i] {
			t.Errorf("self(%s of req %d) = %vms, want %vms", spans[i].Name, spans[i].Req, got, want[i])
		}
	}
	ls := splitLayers(spans)
	if ls.requests != 2 || ls.pathSum != 7 { // (10 + 4) / 2: the on-path self times add up to the mean round trip
		t.Errorf("requests=%d pathSum=%v, want 2 and 7", ls.requests, ls.pathSum)
	}
	if ls.dur["core.recommend"] != 5.5 || ls.self["serve.recommend"] != 2 {
		t.Errorf("core mean %v (want 5.5), serve self mean %v (want 2)", ls.dur["core.recommend"], ls.self["serve.recommend"])
	}
}

func TestUpdateLatenciesPairBatchesWithVerdicts(t *testing.T) {
	at := func(s float64) time.Time { return time.Unix(0, 0).Add(time.Duration(s * float64(time.Second))) }
	var acks []time.Time
	for i := 0; i < 24; i++ {
		acks = append(acks, at(float64(i)))
	}
	verdicts := []verdict{
		// Batch of 3: ready at the third ack (t=2); the rejection arms a
		// 10 s backoff.
		{at: at(8.5), consumed: 8, rejected: true, backoff: 10 * time.Second},
		// The next batch filled at t=10 but was held until the backoff
		// expired at 18.5; it took everything queued by then.
		{at: at(19), consumed: 22},
		// A verdict whose batch was never fully acked is not paired.
		{at: at(27.25), consumed: 24},
	}
	got := updateLatencies(acks, verdicts, 3)
	want := []float64{8.5 - 2, 19 - 18.5}
	if len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
		t.Errorf("updateLatencies = %v, want %v", got, want)
	}
}

func TestCrossingInterpolatesTheSLO(t *testing.T) {
	at := func(p99 float64) phaseSummary { return phaseSummary{p99: tail{value: p99, n: 1000}} }
	if got := crossing(100, 200, at(10), at(40), 20); math.Abs(got-150) > 1e-9 {
		t.Errorf("crossing = %v, want 150 (20 ms is halfway from 10 to 40 ms in log scale)", got)
	}
	if got := crossing(100, 0, at(10), phaseSummary{}, 20); got != 100 {
		t.Errorf("no failing step: crossing = %v, want 100", got)
	}
	if got := crossing(100, 200, at(10), at(15), 20); got != 100 {
		t.Errorf("step failed on errors, not its tail: crossing = %v, want 100", got)
	}
	few := summarize("few", 0, make([]event, 7), make([]outcome, 7))
	if few.meetsSLO(time.Second) {
		t.Error("a phase of 7 reads supports no tail percentile and must not meet an SLO")
	}
}

// benchmarkContract is the part of BENCHMARK.json the smoke test checks.
type benchmarkContract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryMetricPrints runs each workload of BENCHMARK.json for one
// second, untraced and traced, and checks that every metric BENCHMARK.json
// names is reported and printed with its unit.
func TestSmokeEveryMetricPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("boots and trains the server several times")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkContract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Errorf("workload %q is not defined", wl.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := runWorkload(w, runConfig{seed: 1, measure: time.Second, traced: traced, workdir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var out bytes.Buffer
				printResult(&out, res)
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("metric %-30s = ", m.Name)) {
						t.Errorf("metric %s not printed", m.Name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
