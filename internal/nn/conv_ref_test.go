package nn

// Differential tests for the NECS code-encoder kernels in conv.go. The
// reference implementations below are the straightforward loop nests the
// optimized kernels replaced: a per-position dot product for the forward,
// a temporary per-filter gradient tensor for the filter backward, and a
// dense vocab×D gradient table for the embedding backward. The optimized
// kernels promise the same floating-point operations in the same order,
// so every comparison here is on math.Float64bits, never a tolerance.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lite/internal/tensor"
)

// refConv1DMaxPoolValue is the per-position dot-product forward.
func refConv1DMaxPoolValue(input *tensor.Tensor, filters []*tensor.Tensor, bias *tensor.Tensor) (*tensor.Tensor, []int) {
	d := input.Rows
	n := input.Cols
	f := len(filters)
	k := filters[0].Cols
	out := tensor.New(1, f)
	argmax := make([]int, f)
	for fi, w := range filters {
		best, bp := math.Inf(-1), 0
		for p := 0; p+k <= n; p++ {
			var s float64
			for r := 0; r < d; r++ {
				irow := input.Data[r*n:]
				wrow := w.Data[r*k:]
				for c := 0; c < k; c++ {
					s += irow[p+c] * wrow[c]
				}
			}
			if s > best {
				best, bp = s, p
			}
		}
		out.Data[fi] = best + bias.Data[fi]
		argmax[fi] = bp
	}
	return out, argmax
}

// refConv1DMaxPool is Conv1DMaxPool with per-filter gw and per-op gb
// temporaries accumulated through accumGrad.
func refConv1DMaxPool(input *Node, filters []*Node, bias *Node) *Node {
	d := input.Value.Rows
	n := input.Value.Cols
	f := len(filters)
	vals := make([]*tensor.Tensor, f)
	for i, filt := range filters {
		vals[i] = filt.Value
	}
	out, argmax := refConv1DMaxPoolValue(input.Value, vals, bias.Value)
	k := vals[0].Cols
	parents := append(append([]*Node{input}, filters...), bias)
	back := func(g *tensor.Tensor) {
		var gin *tensor.Tensor
		if input.requiresGrad {
			gin = tensor.New(d, n)
		}
		gb := tensor.New(1, f)
		for fi, filt := range filters {
			gv := g.Data[fi]
			gb.Data[fi] = gv
			p := argmax[fi]
			if filt.requiresGrad {
				gw := tensor.New(d, k)
				for r := 0; r < d; r++ {
					for c := 0; c < k; c++ {
						gw.Data[r*k+c] = gv * input.Value.Data[r*n+p+c]
					}
				}
				filt.accumGrad(gw)
			}
			if gin != nil {
				w := filt.Value
				for r := 0; r < d; r++ {
					for c := 0; c < k; c++ {
						gin.Data[r*n+p+c] += gv * w.Data[r*k+c]
					}
				}
			}
		}
		if gin != nil {
			input.accumGrad(gin)
		}
		if bias.requiresGrad {
			bias.accumGrad(gb)
		}
	}
	return newNode(out, back, parents...)
}

// refEmbeddingLookup is EmbeddingLookup with a dense vocab×D gradient
// table per call, added whole into the table's gradient.
func refEmbeddingLookup(table *Node, ids []int) *Node {
	d := table.Value.Cols
	n := len(ids)
	v := embeddingLookupValue(table.Value, ids)
	back := func(g *tensor.Tensor) {
		if !table.requiresGrad {
			return
		}
		gt := tensor.New(table.Value.Rows, table.Value.Cols)
		for j, id := range ids {
			if id < 0 {
				continue
			}
			grow := gt.RowView(id)
			for r := 0; r < d; r++ {
				grow[r] += g.Data[r*n+j]
			}
		}
		table.accumGrad(gt)
	}
	return newNode(v, back, table)
}

// sameBits fails unless a and b are bitwise identical element by element.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v (%#x) != reference %v (%#x)", what, i,
				a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// cloneParam copies a parameter node, including its gradient buffer.
func cloneParam(p *Node) *Node {
	c := NewParam(p.Value.Clone(), p.name)
	if p.Grad != nil {
		c.Grad = p.Grad.Clone()
	}
	return c
}

// convCase is one differential-test configuration for the conv op.
type convCase struct {
	name    string
	input   *tensor.Tensor
	filters []*tensor.Tensor
	bias    *tensor.Tensor
	g       *tensor.Tensor // upstream gradient, 1×F
}

// checkConvCase runs the optimized and reference ops on twin parameter
// sets whose gradient buffers start from the same (non-zero) state, then
// compares the forward value, the argmax and every gradient bit for bit.
func checkConvCase(t *testing.T, tc convCase, seedGrads bool, rng *rand.Rand) {
	t.Helper()
	mk := func() (*Node, []*Node, *Node) {
		in := NewParam(tc.input, "input")
		fs := make([]*Node, len(tc.filters))
		for i, w := range tc.filters {
			fs[i] = NewParam(w, fmt.Sprintf("f%d", i))
		}
		return in, fs, NewParam(tc.bias, "bias")
	}
	in, fs, b := mk()
	if seedGrads {
		for _, p := range append(append([]*Node{in}, fs...), b) {
			p.Grad = tensor.Randn(p.Value.Rows, p.Value.Cols, 1, rng)
		}
	}
	rin, rfs, rb := cloneParam(in), make([]*Node, len(fs)), cloneParam(b)
	for i, f := range fs {
		rfs[i] = cloneParam(f)
	}

	vals := make([]*tensor.Tensor, len(fs))
	for i, f := range fs {
		vals[i] = f.Value
	}
	got, gotArg := conv1DMaxPoolValue(tc.input, vals, tc.bias)
	want, wantArg := refConv1DMaxPoolValue(tc.input, vals, tc.bias)
	sameBits(t, tc.name+" forward", got.Data, want.Data)
	for i := range gotArg {
		if gotArg[i] != wantArg[i] {
			t.Fatalf("%s argmax[%d] = %d, reference %d", tc.name, i, gotArg[i], wantArg[i])
		}
	}

	out := Conv1DMaxPool(in, fs, b)
	ref := refConv1DMaxPool(rin, rfs, rb)
	sameBits(t, tc.name+" node value", out.Value.Data, ref.Value.Data)
	out.backFn(tc.g)
	ref.backFn(tc.g)
	sameBits(t, tc.name+" input grad", in.Grad.Data, rin.Grad.Data)
	for i := range fs {
		sameBits(t, fmt.Sprintf("%s filter %d grad", tc.name, i), fs[i].Grad.Data, rfs[i].Grad.Data)
	}
	sameBits(t, tc.name+" bias grad", b.Grad.Data, rb.Grad.Data)
}

// randConvCase draws a random conv configuration of the given shape.
func randConvCase(name string, d, n, k, f int, rng *rand.Rand) convCase {
	tc := convCase{
		name:  name,
		input: tensor.Randn(d, n, 1, rng),
		bias:  tensor.Randn(1, f, 1, rng),
		g:     tensor.Randn(1, f, 1, rng),
	}
	for i := 0; i < f; i++ {
		tc.filters = append(tc.filters, tensor.Randn(d, k, 1, rng))
	}
	return tc
}

func TestConv1DMaxPoolMatchesReferenceRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 200; i++ {
		d := 1 + rng.Intn(20)
		k := 1 + rng.Intn(6)
		n := k + rng.Intn(40)
		if i%5 == 0 {
			n = k // a single output position
		}
		f := 1 + rng.Intn(9)
		tc := randConvCase(fmt.Sprintf("case%d(d=%d,n=%d,k=%d,f=%d)", i, d, n, k, f), d, n, k, f, rng)
		checkConvCase(t, tc, i%2 == 0, rng)
	}
	// The production shape: EmbDim 16 over 96 tokens, kernels {2,3,4} × 8,
	// and a sequence longer than the forward's stack accumulator.
	for _, k := range []int{2, 3, 4} {
		checkConvCase(t, randConvCase(fmt.Sprintf("necs-k%d", k), 16, 96, k, 8, rng), true, rng)
	}
	checkConvCase(t, randConvCase("long", 4, convAccStack+37, 3, 3, rng), true, rng)
}

func TestConv1DMaxPoolMatchesReferenceTies(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	// Every column identical: every position ties and the first must win.
	d, n, k := 5, 12, 3
	col := tensor.Randn(d, 1, 1, rng)
	in := tensor.New(d, n)
	for r := 0; r < d; r++ {
		for j := 0; j < n; j++ {
			in.Data[r*n+j] = col.Data[r]
		}
	}
	tc := randConvCase("all-tied", d, n, k, 4, rng)
	tc.input = in
	checkConvCase(t, tc, true, rng)
	_, arg := conv1DMaxPoolValue(tc.input, tc.filters, tc.bias)
	for i, p := range arg {
		if p != 0 {
			t.Fatalf("all-tied filter %d argmax = %d, want first position 0", i, p)
		}
	}

	// A repeating period: the maximum recurs at several later positions.
	period := tensor.Randn(d, 4, 1, rng)
	for r := 0; r < d; r++ {
		for j := 0; j < n; j++ {
			in.Data[r*n+j] = period.Data[r*4+j%4]
		}
	}
	checkConvCase(t, tc, false, rng)

	// All-zero input: every activation is +0, ties everywhere.
	tc.input = tensor.New(d, n)
	checkConvCase(t, tc, true, rng)
}

func TestConv1DMaxPoolMatchesReferenceNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	nan, ninf, pinf := math.NaN(), math.Inf(-1), math.Inf(1)
	for i, poison := range [][]float64{
		{nan},
		{ninf},
		{nan, ninf},
		{pinf, ninf}, // Inf − Inf sums to NaN at some positions
	} {
		tc := randConvCase(fmt.Sprintf("nonfinite%d", i), 6, 20, 3, 5, rng)
		for j := 0; j < 12; j++ {
			tc.input.Data[rng.Intn(len(tc.input.Data))] = poison[j%len(poison)]
		}
		checkConvCase(t, tc, i%2 == 0, rng)
	}
	// Every activation NaN or −Inf: no position beats the −Inf start.
	for _, v := range []float64{nan, ninf} {
		tc := randConvCase("all-nonfinite", 3, 7, 2, 3, rng)
		tc.input.Fill(v)
		checkConvCase(t, tc, true, rng)
	}
	// Non-finite filters and upstream gradient.
	tc := randConvCase("nonfinite-weights", 4, 10, 2, 4, rng)
	tc.filters[1].Data[3] = nan
	tc.filters[2].Data[0] = ninf
	tc.g.Data[3] = nan
	checkConvCase(t, tc, true, rng)
}

// checkEmbeddingCase compares the compact-scatter backward of
// EmbeddingLookup with the dense-table reference, bit for bit. When
// seedGrad is set both tables start from the same random gradient (the
// state after earlier instances of a mini-batch); otherwise from nil.
func checkEmbeddingCase(t *testing.T, name string, table *tensor.Tensor, ids []int, g *tensor.Tensor, seedGrad bool, rng *rand.Rand) {
	t.Helper()
	tn := NewParam(table, "embed")
	if seedGrad {
		tn.Grad = tensor.Randn(table.Rows, table.Cols, 1, rng)
	}
	rn := cloneParam(tn)
	out := EmbeddingLookup(tn, ids)
	ref := refEmbeddingLookup(rn, ids)
	sameBits(t, name+" value", out.Value.Data, ref.Value.Data)
	out.backFn(g)
	ref.backFn(g)
	sameBits(t, name+" table grad", tn.Grad.Data, rn.Grad.Data)
}

func TestEmbeddingLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for i := 0; i < 200; i++ {
		vocab := 1 + rng.Intn(30)
		d := 1 + rng.Intn(12)
		n := 1 + rng.Intn(50)
		ids := make([]int, n)
		for j := range ids {
			ids[j] = rng.Intn(vocab+1) - 1 // −1 is padding
		}
		if i%7 == 0 { // one id repeated throughout
			for j := range ids {
				ids[j] = vocab - 1
			}
		}
		g := tensor.Randn(d, n, 1, rng)
		name := fmt.Sprintf("case%d(vocab=%d,d=%d,n=%d)", i, vocab, d, n)
		checkEmbeddingCase(t, name, tensor.Randn(vocab, d, 1, rng), ids, g, i%2 == 0, rng)
	}
	// All padding: the gradient buffer is still created, and stays zero.
	checkEmbeddingCase(t, "all-padding", tensor.Randn(4, 3, 1, rng), []int{-1, -1}, tensor.Randn(3, 2, 1, rng), false, rng)
	// Non-finite and signed-zero upstream gradients on repeated rows.
	g := tensor.Randn(3, 6, 1, rng)
	g.Data[1], g.Data[4], g.Data[7], g.Data[9] = math.NaN(), math.Inf(-1), math.Copysign(0, -1), math.Inf(1)
	checkEmbeddingCase(t, "nonfinite", tensor.Randn(5, 3, 1, rng), []int{2, 2, -1, 4, 2, 0}, g, true, rng)
	checkEmbeddingCase(t, "negzero", tensor.Randn(5, 3, 1, rng), []int{2, 2, -1, 4, 2, 0}, g, false, rng)
}

// TestCNNEncoderInferConcurrent runs the inference forward of one shared
// encoder from several goroutines and requires every result to match the
// serial one bit for bit: the kernels keep their scratch per call, so
// concurrent hoists on shared weights cannot interfere (run under -race
// in make verify).
func TestCNNEncoderInferConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	enc := NewCNNEncoder(40, 16, []int{2, 3, 4}, 8, 16, rng)
	seqs := make([][]int, 12)
	for i := range seqs {
		seqs[i] = make([]int, 96)
		for j := range seqs[i] {
			seqs[i][j] = rng.Intn(41) - 1
		}
	}
	want := make([][]float64, len(seqs))
	for i, ids := range seqs {
		want[i] = enc.Infer(ids).Data
		sameBits(t, fmt.Sprintf("seq %d graph vs infer", i), enc.Forward(ids).Value.Data, want[i])
	}
	const workers = 6
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(seqs)
				got := enc.Infer(seqs[i]).Data
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						errs <- fmt.Errorf("worker %d seq %d [%d]: %v != serial %v", w, i, j, got[j], want[i][j])
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCNNEncoderBackwardConcurrent trains twin encoders (same seed, so same
// weights) from several goroutines at once, the way data-parallel replicas
// do, and requires every gradient to match a serial run bit for bit: the
// pooled backward scratch is never shared between concurrent calls.
func TestCNNEncoderBackwardConcurrent(t *testing.T) {
	newEnc := func() *CNNEncoder {
		return NewCNNEncoder(40, 16, []int{2, 3, 4}, 8, 16, rand.New(rand.NewSource(106)))
	}
	rng := rand.New(rand.NewSource(107))
	seqs := make([][]int, 8)
	for i := range seqs {
		seqs[i] = make([]int, 96)
		for j := range seqs[i] {
			seqs[i][j] = rng.Intn(41) - 1
		}
	}
	grads := func(enc *CNNEncoder) []float64 {
		ZeroGrads(enc.Params())
		for _, ids := range seqs {
			Backward(Sum(Square(enc.Forward(ids))))
		}
		var all []float64
		for _, p := range enc.Params() {
			all = append(all, p.Grad.Data...)
		}
		return all
	}
	want := grads(newEnc())
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			enc := newEnc()
			for rep := 0; rep < 5; rep++ {
				got := grads(enc)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						errs <- fmt.Errorf("rep %d grad[%d]: %v != serial %v", rep, i, got[i], want[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// benchConvInputs builds the production conv shape: a 16×96 embedding
// matrix and 8 filters of width k.
func benchConvInputs(k int) (*tensor.Tensor, []*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(7))
	in := tensor.Randn(16, 96, 1, rng)
	fs := make([]*tensor.Tensor, 8)
	for i := range fs {
		fs[i] = tensor.Randn(16, k, 1, rng)
	}
	return in, fs, tensor.New(1, 8)
}

// BenchmarkConv1DMaxPoolValue times one bank of the forward kernel; the
// ref= cases time the per-position reference loop on the same inputs.
func BenchmarkConv1DMaxPoolValue(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		in, fs, bias := benchConvInputs(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conv1DMaxPoolValue(in, fs, bias)
			}
		})
		b.Run(fmt.Sprintf("ref/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refConv1DMaxPoolValue(in, fs, bias)
			}
		})
	}
}
