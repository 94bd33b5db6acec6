package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lite/internal/core"
	"lite/internal/retrieval"
	"lite/internal/serve"
	"lite/internal/workload"
	"lite/pkg/client"
)

// The cmd/liteserve boot defaults this benchmark reproduces: boot-train the
// 15 apps with 3 configs per instance on the first 2 training sizes, seed 1,
// and mix 256 sampled source instances into every adaptive update.
const (
	bootConfigs      = 3
	bootTrainSizes   = 2
	bootSeed         = 1
	bootSourceSample = 256
)

// deployment is the server configuration a workload runs against. The zero
// value is liteserve with its default flags.
type deployment struct {
	// noCache is liteserve -no-cache (serve.Options.DisableCache).
	noCache bool
	// durable adds liteserve -wal-dir and -snapshot in a fresh directory.
	durable bool
}

// bootTimes splits one set-up into its parts (seconds).
type bootTimes struct {
	total, collect, train, build float64
}

// booted is one running server and its loopback listener.
type booted struct {
	srv   *serve.Server
	hs    *http.Server
	url   string
	dir   string
	times bootTimes
	// source is the source-domain sample every adaptive update mixes in.
	source []*core.Encoded
	served chan error
}

// boot trains the model, seeds the retrieval store, starts the server and
// its listener, and returns once the server answers /v1/healthz. It is the
// work core.Train + retrieval.BuildFromRuns + serve.New/Start do in
// cmd/liteserve; Collect and TrainOn are timed separately (core.Train is
// exactly the two in sequence with the same RNG).
func boot(dep deployment, workdir string) (*booted, error) {
	start := time.Now()
	opts := core.DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = bootConfigs
	opts.Collect.Sizes = make([]int, bootTrainSizes)
	for i := range opts.Collect.Sizes {
		opts.Collect.Sizes[i] = i
	}
	opts.Seed = bootSeed
	core.SetScoreWorkers(0)

	ds := core.Collect(workload.All(), opts.Collect, rand.New(rand.NewSource(opts.Seed)))
	collected := time.Now()
	tuner := core.TrainOn(ds, opts)
	trained := time.Now()
	tuner.Retrieval = retrieval.BuildFromRuns(ds.Runs)
	built := time.Now()
	encoded := core.EncodeAll(tuner.Model.Encoder, ds.Instances)
	source := sampleEncoded(encoded, bootSourceSample, rand.New(rand.NewSource(opts.Seed+13)))

	b := &booted{served: make(chan error, 1), source: source}
	so := serve.Options{
		CacheTTL:        30 * time.Second,
		DisableCache:    dep.noCache,
		BatchMax:        16,
		BatchWindow:     2 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
		MaxInFlight:     256,
		UpdateBatch:     updateBatch,
		SourceSample:    source,
		WALSyncEvery:    8,
		WALSyncInterval: 50 * time.Millisecond,
		Validation:      serve.ValidationOptions{Enable: true, Cases: 6},
		Seed:            bootSeed,
	}
	if dep.durable {
		dir, err := os.MkdirTemp(workdir, "state-")
		if err != nil {
			return nil, fmt.Errorf("boot: state dir: %w", err)
		}
		b.dir = dir
		so.WALDir = filepath.Join(dir, "wal")
		so.SnapshotPath = filepath.Join(dir, "snapshot.json")
	}
	b.srv = serve.New(tuner, so)
	if err := b.srv.Start(); err != nil {
		b.removeDir()
		return nil, fmt.Errorf("boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Shutdown(nil)
		b.removeDir()
		return nil, fmt.Errorf("boot: listen: %w", err)
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() { b.served <- b.hs.Serve(ln) }()
	if err := waitHealthy(b.url); err != nil {
		b.stop()
		return nil, err
	}
	b.times = bootTimes{
		total:   time.Since(start).Seconds(),
		collect: collected.Sub(start).Seconds(),
		train:   trained.Sub(collected).Seconds(),
		build:   built.Sub(trained).Seconds(),
	}
	return b, nil
}

// waitHealthy polls /v1/healthz until it answers 200.
func waitHealthy(url string) error {
	c := client.New(url, client.WithTimeout(time.Second))
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Health(context.Background())
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("boot: server never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and the server down, waiting for the update loop
// (including its final fold of pending feedback), and removes the state
// directory.
func (b *booted) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	herr := b.hs.Shutdown(ctx)
	if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	serr := b.srv.Shutdown(ctx.Done())
	b.removeDir()
	return errors.Join(herr, serr)
}

func (b *booted) removeDir() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// sampleEncoded draws the source sample exactly as cmd/liteserve does.
func sampleEncoded(data []*core.Encoded, n int, rng *rand.Rand) []*core.Encoded {
	if n <= 0 || n >= len(data) {
		return data
	}
	out := make([]*core.Encoded, n)
	for i, j := range rng.Perm(len(data))[:n] {
		out[i] = data[j]
	}
	return out
}
