package main

import (
	"fmt"
	"math"

	"lite/internal/serve"
	"lite/internal/sparksim"
	"lite/pkg/api"
)

// validTiers are the four levels of the serving degradation chain.
var validTiers = map[string]bool{"necs": true, "retrieval": true, "acg-region": true, "safe-default": true}

// checkRecommend validates one 200 answer to req: a known tier, every knob
// present and finite, the configuration feasible on the requested cluster,
// and a generation that has been published (generations are published in
// order, so any generation up to the live one is real). It returns the
// reason the answer is invalid, or "".
func checkRecommend(req api.RecommendRequest, resp api.RecommendResponse, liveGen uint64) string {
	if !validTiers[resp.Tier] {
		return fmt.Sprintf("unknown tier %q", resp.Tier)
	}
	cfg, reason := configOf(resp.Config)
	if reason != "" {
		return reason
	}
	env, ok := serve.ClusterByName(req.Cluster)
	if !ok {
		return fmt.Sprintf("request names unknown cluster %q", req.Cluster)
	}
	if !sparksim.Feasible(cfg, env) {
		return fmt.Sprintf("config infeasible on cluster %s", env.Name)
	}
	if resp.Generation > liveGen {
		return fmt.Sprintf("generation %d was never published (live %d)", resp.Generation, liveGen)
	}
	return ""
}

// configOf turns a served knob map into a Config, requiring exactly the
// sparksim.NumKnobs knobs, each finite. Values are taken as served: a
// clamp here would hide an out-of-domain answer.
func configOf(m map[string]float64) (sparksim.Config, string) {
	var cfg sparksim.Config
	if len(m) != sparksim.NumKnobs {
		return cfg, fmt.Sprintf("config has %d knobs, want %d", len(m), sparksim.NumKnobs)
	}
	for i, k := range sparksim.Knobs {
		v, ok := m[k.Name]
		if !ok {
			return cfg, fmt.Sprintf("knob %s missing", k.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return cfg, fmt.Sprintf("knob %s is not finite", k.Name)
		}
		cfg[i] = v
	}
	return cfg, ""
}
