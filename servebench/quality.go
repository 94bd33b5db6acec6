package main

import (
	"context"
	"fmt"

	"lite/internal/core"
	"lite/internal/serve"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// qualityPass is the paper's Table VI setting served over HTTP: every app
// at its test size on clusters A, B and C (45 keys), one request at a time.
// It returns the geometric mean over the keys of the simulated seconds of
// the safe default (the default config forced feasible) over the seconds
// of the served config, both from serve.SimulateOnce. A failed or invalid
// answer counts against the run and leaves its key out of the mean.
func (r *runner) qualityPass(ctx context.Context) (float64, error) {
	var ratios []float64
	for _, env := range sparksim.AllClusters {
		for _, app := range workload.All() {
			req := api.RecommendRequest{App: app.Spec.Name, SizeMB: app.Sizes.Test, Cluster: env.Name}
			var o outcome
			resp, err := r.recommend(ctx, req, &o)
			if err != nil {
				fmt.Printf("quality: %s/%s failed: %s\n", app.Spec.Name, env.Name, o.code)
				continue
			}
			cfg, _ := configOf(resp.Config) // checked by recommend
			served, err := serve.SimulateOnce(app.Spec.Name, app.Sizes.Test, env.Name, cfg)
			if err != nil {
				return 0, err
			}
			def, err := serve.SimulateOnce(app.Spec.Name, app.Sizes.Test, env.Name, core.ForceFeasible(sparksim.DefaultConfig(), env))
			if err != nil {
				return 0, err
			}
			ratios = append(ratios, def.Seconds/served.Seconds)
		}
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("quality pass: every request failed")
	}
	return geoMean(ratios), nil
}
