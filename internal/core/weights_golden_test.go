package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// Trained-weight hashes recorded before the position-major conv kernel and
// the allocation-free conv/embedding backward landed (DESIGN.md §12.1).
// Those kernels promise bit-identical arithmetic, so any change to these
// values means a kernel changed a rounding — not tolerance noise.
const (
	goldenTrainSHA = "513b0dbc69fe11f974e1ddf4799e965d5a05a7f503672f554355f7f591de714e"
	goldenAMUSHA   = "57f12eefc913aa45a359d674b6ff9df0e823680d92049d8c9af3400213bcc9f0"
)

// paramsSHA256 hashes every parameter bit of m in Params() order.
func paramsSHA256(m *NECS) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedWeightsGolden trains the parallel-benchmark fixture (WordCount,
// KMeans, PageRank; 2 configs per instance; smallest size; cluster C) and
// then runs one Adaptive Model Update round, pinning the SHA-256 of every
// weight after each phase. Unlike the K=1-vs-serial goldens, which compare
// two paths of the same build, this compares against recorded values, so
// it catches a kernel rewrite that changes arithmetic on every path at once.
//
// amd64 only: the Go spec lets the compiler fuse x*y+z into one FMA, and it
// does so on arm64, ppc64le, s390x and riscv64, where the same source then
// rounds differently. The amd64 backend never fuses a separate * and +.
func TestTrainedWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("weight hashes are recorded for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	apps := []*workload.App{
		workload.ByName("WordCount"),
		workload.ByName("KMeans"),
		workload.ByName("PageRank"),
	}
	opts := DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = 2
	opts.Collect.Sizes = []int{0}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	opts.NECS.Epochs = 2
	tuner, ds := Train(apps, opts)
	if got := paramsSHA256(tuner.Model); got != goldenTrainSHA {
		t.Errorf("trained weights SHA-256 = %s, want %s", got, goldenTrainSHA)
	}

	encoded := EncodeAll(tuner.Model.Encoder, ds.Instances)
	mid := len(encoded) / 2
	cfg := DefaultAMUConfig()
	cfg.Epochs = 2
	m := tuner.Model.Clone()
	AdaptiveModelUpdate(m, encoded[:mid], encoded[mid:], cfg, rand.New(rand.NewSource(41)))
	if got := paramsSHA256(m); got != goldenAMUSHA {
		t.Errorf("AMU-updated weights SHA-256 = %s, want %s", got, goldenAMUSHA)
	}
}
