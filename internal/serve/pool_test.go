package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"lite/internal/core"
)

// TestPoolGaugesExposed: the server registers scoring-pool gauges that show
// up in /metrics exposition with live values.
func TestPoolGaugesExposed(t *testing.T) {
	t.Cleanup(func() { core.SetScoreWorkers(0) })
	s := newTestServer(t, Options{ScoreWorkers: 3})

	if got := core.ScoreWorkers(); got != 3 {
		t.Fatalf("Options.ScoreWorkers not applied: pool width %d", got)
	}
	if _, err := s.Recommend(RecommendRequest{App: "WordCount", SizeMB: 64, Cluster: "C"}); err != nil {
		t.Fatalf("recommend: %v", err)
	}

	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, name := range []string{
		"lite_score_pool_workers 3",
		"lite_score_pool_busy ",
		"lite_score_pool_utilization ",
		"lite_score_pool_items_total ",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("exposition missing %q:\n%s", name, out)
		}
	}
	// At least one recommendation's candidates went through the pool.
	if strings.Contains(out, "lite_score_pool_items_total 0\n") {
		t.Fatal("pool items gauge never advanced")
	}
}

// TestServeParallelScoringRace overlaps pooled candidate scoring with
// data-parallel adaptive updates and a hot-swap. Run with -race: concurrent
// recommendations fan their candidates across the shared pool while
// retrains run FitWorkers=2 replicas concurrently.
func TestServeParallelScoringRace(t *testing.T) {
	t.Cleanup(func() { core.SetScoreWorkers(0) })
	s := newTestServer(t, Options{
		ScoreWorkers:  4,
		FitWorkers:    2,
		DisableCache:  true,
		UpdateBatch:   2,
		FeedbackQueue: 8,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := s.Feedback(FeedbackRequest{App: "KMeans", SizeMB: 64, Cluster: "C"})
			if err != nil && err != ErrQueueFull {
				t.Errorf("feedback: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var rwg sync.WaitGroup
	sizes := []float64{64, 512, 4096}
	for g := 0; g < 8; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			for i := 0; i < 6; i++ {
				resp, err := s.Recommend(RecommendRequest{
					App:     "WordCount",
					SizeMB:  sizes[(g+i)%len(sizes)],
					Cluster: "C",
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if resp.Tier == "" {
					t.Errorf("goroutine %d: empty tier", g)
				}
			}
		}(g)
	}
	rwg.Wait()

	deadline := time.Now().Add(120 * time.Second)
	for s.Snapshot().Gen < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no data-parallel retrain landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
