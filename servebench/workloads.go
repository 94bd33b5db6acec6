package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// updateBatch is liteserve's -update-batch default: feedback runs per
// adaptive model update.
const updateBatch = 8

// workloadDef is one traffic mix against one deployment. README.md records
// why each exists and which layers it stresses.
type workloadDef struct {
	name string
	dep  deployment
	// rate is the nominal read rate (req/s) the latency metrics are taken
	// at, over nominalShare of the measured seconds.
	rate         float64
	nominalShare float64
	// searchFrom is the first rung of the max_rps_at_slo ladder, about
	// half the rate where the calibration machine's backlog starts.
	searchFrom float64
	// traceEvery traces one read in this many, keeping the replay work
	// near 20 requests per second at the nominal rate.
	traceEvery int
	// mix returns the read-request generator for a seed's RNG.
	mix func(rng *rand.Rand) func() api.RecommendRequest
	// warm lists the keys touched once before timing, so the timed phases
	// see a filled cache rather than the first-touch misses of a cold
	// start (nil for the cache-less deployment).
	warm func() []api.RecommendRequest
}

// slo is the tail-latency limit max_rps_at_slo searches against. It is set
// above the stalls the calibration machine's host imposes (README.md,
// "Calibration"), so that a rung fails when a backlog builds rather than
// when a stall happens to land in it.
const slo = 100 * time.Millisecond

// The rates are calibrated on a 2-vCPU VM (README.md, "Calibration").
var workloads = map[string]*workloadDef{
	"hot-keys": {
		name:         "hot-keys",
		dep:          deployment{durable: true},
		rate:         2000,
		nominalShare: 0.6,
		searchFrom:   8000,
		traceEvery:   100,
		mix:          hotKeysMix,
		warm:         hotKeys,
	},
	"cold-model": {
		name:         "cold-model",
		dep:          deployment{noCache: true},
		rate:         75,
		nominalShare: 0.7,
		searchFrom:   150,
		traceEvery:   4,
		mix:          coldModelMix,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var clusters = []string{"A", "B", "C"}

// unseen returns a request for an application the server was never
// trained on: a registered app's stage code and DAG ops under an
// unregistered name, so the retrieval tier answers it.
func unseen(app *workload.App, sizeMB float64, cluster string) api.RecommendRequest {
	var code strings.Builder
	var ops []string
	for i := range app.Spec.Stages {
		st := &app.Spec.Stages[i]
		code.WriteString(st.Code)
		code.WriteString("\n")
		ops = append(ops, st.Ops...)
	}
	return api.RecommendRequest{
		App:      "Unseen" + app.Spec.Abbrev,
		SizeMB:   sizeMB,
		Cluster:  cluster,
		Features: &api.AppFeatures{Code: code.String(), Ops: ops},
	}
}

// doubling is an app's smallest training size times 2^d.
func doubling(app *workload.App, d int) float64 {
	return app.Sizes.Train[0] * math.Exp2(float64(d))
}

// hotKeys is the fixed 64-key set of the hot-keys mix: 15 apps × 4 sizes
// (2, 8, 32 and 128 times the smallest training size, none in a test
// size's cache bucket) with the cluster rotating per key, plus 4 unseen
// apps at 1 GiB.
func hotKeys() []api.RecommendRequest {
	apps := workload.All()
	var keys []api.RecommendRequest
	for i, app := range apps {
		for j, d := range []int{1, 3, 5, 7} {
			keys = append(keys, api.RecommendRequest{
				App: app.Spec.Name, SizeMB: doubling(app, d), Cluster: clusters[(i+j)%3],
			})
		}
	}
	for j, i := range []int{0, 4, 8, 12} {
		keys = append(keys, unseen(apps[i], 1024, clusters[j%3]))
	}
	return keys
}

// hotKeysMix draws Zipf(1.1) over the 64 hot keys; the seed decides which
// keys are hot.
func hotKeysMix(rng *rand.Rand) func() api.RecommendRequest {
	keys := hotKeys()
	perm := rng.Perm(len(keys))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	return func() api.RecommendRequest { return keys[perm[z.Uint64()]] }
}

// coldModelMix draws uniformly over 15 apps × 3 clusters × 10 size
// doublings from each app's smallest training size (450 keys); one request
// in ten is an unseen app.
func coldModelMix(rng *rand.Rand) func() api.RecommendRequest {
	apps := workload.All()
	return func() api.RecommendRequest {
		app := apps[rng.Intn(len(apps))]
		cluster := clusters[rng.Intn(len(clusters))]
		size := doubling(app, rng.Intn(10))
		if rng.Float64() < 0.1 {
			return unseen(app, size, cluster)
		}
		return api.RecommendRequest{App: app.Spec.Name, SizeMB: size, Cluster: cluster}
	}
}

// feedbackKey is the k-th feedback's key: test size, round-robin over the
// 15 apps × 3 clusters of the paper's Table VI setting.
func feedbackKey(k int) api.RecommendRequest {
	apps := workload.All()
	app := apps[k%len(apps)]
	return api.RecommendRequest{
		App: app.Spec.Name, SizeMB: app.Sizes.Test, Cluster: sparksim.AllClusters[(k/len(apps))%3].Name,
	}
}

// schedule builds one phase of Poisson reads at rate over d; every
// traceEvery-th read is marked for tracing when traceEvery > 0.
func schedule(rate float64, d time.Duration, next func() api.RecommendRequest, rng *rand.Rand, traceEvery int) []event {
	var evs []event
	for i, due := range poissonArrivals(rate, d, rng) {
		evs = append(evs, event{due: due, kind: evRead, req: next(), traced: traceEvery > 0 && i%traceEvery == 0})
	}
	return evs
}
