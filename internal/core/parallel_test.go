package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// --- pool primitives -------------------------------------------------------

func TestSetScoreWorkersAndStats(t *testing.T) {
	defer SetScoreWorkers(0)

	SetScoreWorkers(4)
	if got := ScoreWorkers(); got != 4 {
		t.Fatalf("ScoreWorkers() = %d, want 4", got)
	}
	st := ScorePoolStats()
	if st.Workers != 4 || st.Busy != 0 {
		t.Fatalf("idle stats = %+v", st)
	}

	SetScoreWorkers(1)
	st = ScorePoolStats()
	if st.Workers != 1 || st.Utilization != 0 {
		t.Fatalf("serial stats = %+v", st)
	}

	SetScoreWorkers(0)
	if ScoreWorkers() < 1 {
		t.Fatalf("default pool width %d < 1", ScoreWorkers())
	}
}

func TestParallelDoCoversEveryIndexOnce(t *testing.T) {
	defer SetScoreWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		SetScoreWorkers(workers)
		const n = 257
		hits := make([]int, n)
		ParallelDo(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestParallelDoCountsItems(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(3)
	before := ScorePoolStats().Items
	ParallelDo(10, func(int) {})
	ParallelDo(7, func(int) {})
	if got := ScorePoolStats().Items - before; got != 17 {
		t.Fatalf("Items advanced by %d, want 17", got)
	}
}

// Nested fan-out must not deadlock: inner calls degrade to inline execution
// when no helper slot is free — e.g. an outer fan-out over requests whose
// recommendations each fan out over candidates.
func TestParallelDoNestedDoesNotDeadlock(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(2)
	var mu sync.Mutex
	total := 0
	ParallelDo(4, func(int) {
		ParallelDo(8, func(int) {
			mu.Lock()
			total++
			mu.Unlock()
		})
	})
	if total != 32 {
		t.Fatalf("nested work executed %d times, want 32", total)
	}
}

// A panic inside a worker must surface on the calling goroutine so callers'
// recover guards (tryNECSTier's degradation chain) keep working.
func TestParallelDoPropagatesPanic(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic from worker was swallowed")
		}
	}()
	ParallelDo(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// --- deterministic parallel ranking ---------------------------------------

func parallelTestModel(t *testing.T) (*NECS, *Dataset) {
	t.Helper()
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("KMeans")}
	ds := smallDataset(t, apps, 2, 11)
	cfg := fastConfig()
	cfg.Epochs = 2
	rng := rand.New(rand.NewSource(11))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	model.Fit(EncodeAll(enc, ds.Instances), rng)
	return model, ds
}

// TestRecommendFromParallelMatchesSerial is the regression test for ranking
// determinism: the pool width must not change Ranked — neither the scores
// nor the order, even with duplicate candidates whose predictions tie
// exactly (the stable index tie-break, not goroutine completion order,
// decides).
func TestRecommendFromParallelMatchesSerial(t *testing.T) {
	defer SetScoreWorkers(0)
	model, _ := parallelTestModel(t)
	// RecommendFrom ranks caller-supplied candidates, so no ACG is needed.
	tuner := &Tuner{Model: model, NumCandidates: 16, AMU: DefaultAMUConfig()}
	app := workload.ByName("WordCount")
	data := app.Spec.MakeData(app.Sizes.Train[0])
	env := sparksim.ClusterC

	// 20 candidates with deliberate exact duplicates to force score ties.
	rng := rand.New(rand.NewSource(3))
	var cands []sparksim.Config
	for i := 0; i < 10; i++ {
		c := ForceFeasible(sparksim.RandomConfig(rng), env)
		cands = append(cands, c, c)
	}

	SetScoreWorkers(1)
	serial := tuner.RecommendFrom(app.Spec, data, env, cands)

	for _, workers := range []int{2, 8} {
		SetScoreWorkers(workers)
		for rep := 0; rep < 3; rep++ {
			par := tuner.RecommendFrom(app.Spec, data, env, cands)
			if len(par.Ranked) != len(serial.Ranked) {
				t.Fatalf("workers=%d: ranked %d vs %d", workers, len(par.Ranked), len(serial.Ranked))
			}
			for i := range serial.Ranked {
				if par.Ranked[i].Predicted != serial.Ranked[i].Predicted {
					t.Fatalf("workers=%d rep=%d: rank %d predicted %v != serial %v",
						workers, rep, i, par.Ranked[i].Predicted, serial.Ranked[i].Predicted)
				}
				if fmt.Sprint(par.Ranked[i].Config) != fmt.Sprint(serial.Ranked[i].Config) {
					t.Fatalf("workers=%d rep=%d: rank %d config order diverged", workers, rep, i)
				}
			}
			if par.PredictedSeconds != serial.PredictedSeconds {
				t.Fatalf("workers=%d: winner %v != %v", workers, par.PredictedSeconds, serial.PredictedSeconds)
			}
		}
	}
}

// The AppScorer fast path must agree bit-for-bit with the historical
// stage-by-stage PredictApp contract at any pool width.
func TestAppScorerMatchesPredictApp(t *testing.T) {
	defer SetScoreWorkers(0)
	model, _ := parallelTestModel(t)
	app := workload.ByName("KMeans")
	data := app.Spec.MakeData(app.Sizes.Valid)
	env := sparksim.ClusterA
	rng := rand.New(rand.NewSource(17))
	scorer := model.NewAppScorer(app.Spec, data, env)
	for i := 0; i < 8; i++ {
		cfg := sparksim.RandomConfig(rng)
		if got, want := scorer.Score(cfg), model.PredictApp(app.Spec, data, env, cfg); got != want {
			t.Fatalf("Score %v != PredictApp %v", got, want)
		}
	}
}

// --- data-parallel training ----------------------------------------------

func trainTwin(t *testing.T, fitWorkers int) (*NECS, float64) {
	t.Helper()
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("Terasort")}
	ds := smallDataset(t, apps, 3, 21)
	cfg := fastConfig()
	cfg.Epochs = 5
	cfg.FitWorkers = fitWorkers
	rng := rand.New(rand.NewSource(21))
	enc := NewEncoder(ds.Instances, cfg)
	model := NewNECS(enc, cfg, rng)
	loss := model.Fit(EncodeAll(enc, ds.Instances), rng)
	return model, loss
}

func assertParamsEqual(t *testing.T, a, b *NECS, context string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d params", context, len(pa), len(pb))
	}
	for i := range pa {
		for d := range pa[i].Value.Data {
			if pa[i].Value.Data[d] != pb[i].Value.Data[d] {
				t.Fatalf("%s: param %d element %d: %v != %v",
					context, i, d, pa[i].Value.Data[d], pb[i].Value.Data[d])
			}
		}
	}
}

// TestFitParallelK1Golden proves the Fit refactor changes no numbers: the
// parallel engine at K=1 must reproduce the serial path bit for bit —
// identical final loss and identical weights.
func TestFitParallelK1Golden(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(4) // make sure the pool being active doesn't leak in
	serial, serialLoss := trainTwin(t, 0)
	par, parLoss := trainTwin(t, 1)
	if serialLoss != parLoss {
		t.Fatalf("K=1 loss %v != serial loss %v", parLoss, serialLoss)
	}
	assertParamsEqual(t, serial, par, "K=1 vs serial")
}

// TestFitParallelK3Learns checks the statistically-equivalent regime: K=3
// must still converge to a usable model (finite loss, finite weights, loss
// in the same ballpark as serial).
func TestFitParallelK3Learns(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(3)
	_, serialLoss := trainTwin(t, 0)
	model, loss := trainTwin(t, 3)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("K=3 loss not finite: %v", loss)
	}
	if !model.paramsFinite() {
		t.Fatal("K=3 weights went non-finite")
	}
	if loss > 4*serialLoss+1 {
		t.Fatalf("K=3 loss %v far above serial %v", loss, serialLoss)
	}
}

// TestAMUWorkers1Golden: AdaptiveModelUpdate through the parallel engine at
// Workers=1 is bit-identical to the serial fine-tuning loop.
func TestAMUWorkers1Golden(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(4)
	base, _ := trainTwin(t, 0)
	enc := base.Encoder

	apps := []*workload.App{workload.ByName("PageRank")}
	ds := smallDataset(t, apps, 2, 31)
	encoded := EncodeAll(enc, ds.Instances)
	mid := len(encoded) / 2
	source, target := encoded[:mid], encoded[mid:]

	cfg := DefaultAMUConfig()
	cfg.Epochs = 2

	serial := base.Clone()
	cfgSerial := cfg
	cfgSerial.Workers = 0
	lossSerial := AdaptiveModelUpdate(serial, source, target, cfgSerial, rand.New(rand.NewSource(41)))

	par := base.Clone()
	cfgPar := cfg
	cfgPar.Workers = 1
	lossPar := AdaptiveModelUpdate(par, source, target, cfgPar, rand.New(rand.NewSource(41)))

	if lossSerial != lossPar {
		t.Fatalf("AMU Workers=1 loss %v != serial %v", lossPar, lossSerial)
	}
	assertParamsEqual(t, serial, par, "AMU Workers=1 vs serial")
}

// TestAMUWorkersParallelStable: Workers=2 fine-tuning stays finite.
func TestAMUWorkersParallelStable(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(2)
	base, _ := trainTwin(t, 0)
	apps := []*workload.App{workload.ByName("PageRank")}
	ds := smallDataset(t, apps, 2, 31)
	encoded := EncodeAll(base.Encoder, ds.Instances)
	mid := len(encoded) / 2

	cfg := DefaultAMUConfig()
	cfg.Epochs = 2
	cfg.Workers = 2
	m := base.Clone()
	loss := AdaptiveModelUpdate(m, encoded[:mid], encoded[mid:], cfg, rand.New(rand.NewSource(43)))
	if math.IsNaN(loss) || math.IsInf(loss, 0) || !m.paramsFinite() {
		t.Fatalf("Workers=2 AMU unstable: loss=%v finite=%v", loss, m.paramsFinite())
	}
}

// --- race coverage under the pool -----------------------------------------

// TestPoolConcurrentRecommendAndUpdateRace overlaps pooled recommendations,
// a pool resize, and a data-parallel adaptive update. Run with -race.
func TestPoolConcurrentRecommendAndUpdateRace(t *testing.T) {
	defer SetScoreWorkers(0)
	SetScoreWorkers(4)
	tuner, ds := concurrencyTuner(t)
	tuner.UpdateBatch = 3
	tuner.AMU.Epochs = 1
	tuner.AMU.Workers = 2
	app := workload.ByName("WordCount")
	env := sparksim.ClusterC
	data := app.Spec.MakeData(app.Sizes.Train[0])
	source := EncodeAll(tuner.Model.Encoder, ds.Instances[:16])

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if g == 0 && i == 1 {
					SetScoreWorkers(2 + g%3) // resize mid-flight
				}
				if _, err := tuner.RecommendSafe(app.Spec, data, env); err != nil {
					t.Errorf("RecommendSafe: %v", err)
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(5))
	updated := false
	for i := 0; i < 4; i++ {
		cfg := ForceFeasible(sparksim.RandomConfig(rng), env)
		run := instrument.Run(app.Spec, data, env, cfg)
		if tuner.CollectFeedback(run, source) {
			updated = true
		}
	}
	wg.Wait()
	if !updated {
		t.Fatal("expected a data-parallel adaptive update to trigger")
	}
	if !tuner.Model.paramsFinite() {
		t.Fatal("weights went non-finite")
	}
}
