package nn

import (
	"math"
	"sync"

	"lite/internal/tensor"
)

// Conv1DMaxPool implements a text-CNN feature extractor over a token
// embedding matrix, matching NECS's code encoder (paper §III-D): for each
// filter W_f ∈ R^{D×k} the op slides over the token axis of the D×N input,
// producing an activation sequence of length N−k+1, then applies global
// max-pooling, yielding one scalar per filter. The result is the flattened
// 1×F feature map Q from Equation (1).
//
// filters holds F parameter nodes, each of shape D×k (all with the same k
// for one instance of the op; use several ops for multiple kernel sizes).
func Conv1DMaxPool(input *Node, filters []*Node, bias *Node) *Node {
	d := input.Value.Rows
	n := input.Value.Cols
	f := len(filters)
	vals := make([]*tensor.Tensor, f)
	for i, filt := range filters {
		vals[i] = filt.Value
	}
	out, argmax := conv1DMaxPoolValue(input.Value, vals, bias.Value)
	k := vals[0].Cols
	parents := make([]*Node, 0, f+2)
	parents = append(parents, input)
	parents = append(parents, filters...)
	parents = append(parents, bias)
	back := func(g *tensor.Tensor) {
		// Filter and bias gradients are added straight into the parameter
		// buffers: each element receives the same single addition of the
		// same product a temporary per-filter tensor would have carried.
		// The input gradient keeps its own per-op buffer: summing several
		// banks directly into one input.Grad would reorder their additions.
		var gin *tensor.Tensor
		if input.requiresGrad {
			buf := getScratch(d * n)
			defer scratchPool.Put(buf)
			gin = tensor.FromSlice(d, n, *buf)
		}
		var gb []float64
		if bias.requiresGrad {
			gb = bias.ensureGrad().Data
		}
		for fi, filt := range filters {
			gv := g.Data[fi]
			if gb != nil {
				gb[fi] += gv
			}
			p := argmax[fi]
			if filt.requiresGrad {
				gw := filt.ensureGrad().Data
				for r := 0; r < d; r++ {
					grow := gw[r*k : r*k+k]
					x := input.Value.Data[r*n+p:]
					for c, xv := range x[:len(grow)] {
						grow[c] += gv * xv
					}
				}
			}
			if gin != nil {
				w := filt.Value.Data
				for r := 0; r < d; r++ {
					wrow := w[r*k : r*k+k]
					grow := gin.Data[r*n+p:]
					for c, wv := range wrow {
						grow[c] += gv * wv
					}
				}
			}
		}
		if gin != nil {
			input.accumGrad(gin)
		}
	}
	return newNode(out, back, parents...)
}

// scratchPool recycles float64 work buffers that live for one backward call
// (the conv input gradient, the embedding partial sums). A pool rather than
// a field on the encoder: data-parallel replicas run backward concurrently,
// and a buffer owned by the model would stay on the heap while it serves.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled, zeroed buffer of length n; Put it back when
// the call is done with it.
func getScratch(n int) *[]float64 {
	buf := scratchPool.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return buf
}

// convAccStack bounds the activation accumulator conv1DMaxPoolValue keeps
// on the stack; longer sequences fall back to one heap buffer per call.
const convAccStack = 256

// conv1DMaxPoolValue is the shared forward kernel of Conv1DMaxPool: it
// computes the 1×F pooled feature map and the argmax position per filter.
// Both the autograd op above and the inference path (infer.go) call it, so
// the two paths are bitwise identical by construction.
//
// The loop nest is position-major: per filter, zero one accumulator per
// output position, then for each row r sweep all positions adding that
// row's k taps in order, acc[p] += input[r,p+c]·w[r,c] for c = 0..k−1
// (convRowTaps). Each position still sums its D·k products in (r, c) order
// starting from +0 — exactly the order of a per-position dot product — so
// every activation, and with the strict ">" scan (first maximum wins)
// every argmax, is bit-identical to the naive loop. What changes is the
// dependency chain: the naive loop carries one accumulator through D·k
// serial adds per position, while the sweep advances N−k+1 independent
// accumulators and its bounds-check-free inner loop pipelines.
func conv1DMaxPoolValue(input *tensor.Tensor, filters []*tensor.Tensor, bias *tensor.Tensor) (*tensor.Tensor, []int) {
	d := input.Rows
	n := input.Cols
	f := len(filters)
	if f == 0 {
		panic("nn: Conv1DMaxPool requires at least one filter")
	}
	k := filters[0].Cols
	if n < k {
		panic("nn: Conv1DMaxPool input shorter than kernel")
	}
	m := n - k + 1
	var stack [convAccStack]float64
	var acc []float64
	if m <= convAccStack {
		acc = stack[:m]
	} else {
		acc = make([]float64, m)
	}
	out := tensor.New(1, f)
	argmax := make([]int, f)
	for fi, w := range filters {
		if w.Rows != d || w.Cols != k {
			panic("nn: Conv1DMaxPool filter shape mismatch")
		}
		for p := range acc {
			acc[p] = 0
		}
		for r := 0; r < d; r++ {
			convRowTaps(acc, input.Data[r*n:r*n+n], w.Data[r*k:r*k+k])
		}
		best, bp := math.Inf(-1), 0
		for p, s := range acc {
			if s > best {
				best, bp = s, p
			}
		}
		out.Data[fi] = best + bias.Data[fi]
		argmax[fi] = bp
	}
	return out, argmax
}

// convRowTaps adds one filter row's k taps into the position accumulators:
// acc[p] += x[p+c]·w[c] for c = 0..k−1 in order. The common widths keep
// acc[p] in a register across the taps; the addition order is the same.
func convRowTaps(acc, x, w []float64) {
	m := len(acc)
	switch len(w) {
	case 2:
		w0, w1 := w[0], w[1]
		x0, x1 := x[0:m], x[1:1+m]
		for p := range acc {
			acc[p] = acc[p] + x0[p]*w0 + x1[p]*w1
		}
	case 3:
		w0, w1, w2 := w[0], w[1], w[2]
		x0, x1, x2 := x[0:m], x[1:1+m], x[2:2+m]
		for p := range acc {
			acc[p] = acc[p] + x0[p]*w0 + x1[p]*w1 + x2[p]*w2
		}
	case 4:
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		x0, x1, x2, x3 := x[0:m], x[1:1+m], x[2:2+m], x[3:3+m]
		for p := range acc {
			acc[p] = acc[p] + x0[p]*w0 + x1[p]*w1 + x2[p]*w2 + x3[p]*w3
		}
	default:
		for c, wv := range w {
			xc := x[c : c+m]
			for p := range acc {
				acc[p] += xc[p] * wv
			}
		}
	}
}

// EmbeddingLookup gathers rows of the embedding table for the given ids and
// returns them transposed as a D×N matrix (embedding dim × sequence length),
// the orientation NECS's CNN expects. id < 0 selects the zero padding
// column, which receives no gradient.
func EmbeddingLookup(table *Node, ids []int) *Node {
	d := table.Value.Cols
	n := len(ids)
	v := embeddingLookupValue(table.Value, ids)
	back := func(g *tensor.Tensor) {
		if !table.requiresGrad {
			return
		}
		grad := table.ensureGrad()
		// Sum each touched row's partial gradient in a compact buffer —
		// slot s holds the row of rows[s] — in position order from +0, then
		// add every partial into the table once. That is the arithmetic of
		// building a dense vocab×D gradient and adding it whole, minus the
		// untouched rows, which would only have received +0 (a no-op: a
		// gradient accumulated from +0 by additions is never −0). Slots are
		// found by linear search: n is one stage's code length (NECS
		// TokenLen, 96), far below where a map would pay for itself.
		slot := make([]int, n)
		rows := make([]int, 0, n)
		for j, id := range ids {
			slot[j] = -1
			if id < 0 {
				continue
			}
			s := 0
			for s < len(rows) && rows[s] != id {
				s++
			}
			if s == len(rows) {
				rows = append(rows, id)
			}
			slot[j] = s
		}
		buf := getScratch(len(rows) * d)
		defer scratchPool.Put(buf)
		part := *buf
		for r := 0; r < d; r++ {
			grow := g.Data[r*n : r*n+n]
			for j, s := range slot {
				if s >= 0 {
					part[s*d+r] += grow[j]
				}
			}
		}
		for s, id := range rows {
			trow := grad.RowView(id)
			for r, v := range part[s*d : s*d+d] {
				trow[r] += v
			}
		}
	}
	return newNode(v, back, table)
}

// embeddingLookupValue is the shared forward kernel of EmbeddingLookup,
// also used by the inference path (infer.go).
func embeddingLookupValue(table *tensor.Tensor, ids []int) *tensor.Tensor {
	d := table.Cols
	n := len(ids)
	v := tensor.New(d, n)
	for j, id := range ids {
		if id < 0 {
			continue
		}
		row := table.RowView(id)
		for r := 0; r < d; r++ {
			v.Data[r*n+j] = row[r]
		}
	}
	return v
}

// EmbeddingLookupRows gathers rows of the embedding table as an N×D matrix
// (sequence length × embedding dim), the orientation the LSTM and
// Transformer encoders expect.
func EmbeddingLookupRows(table *Node, ids []int) *Node {
	d := table.Value.Cols
	v := tensor.New(len(ids), d)
	for i, id := range ids {
		if id < 0 {
			continue
		}
		copy(v.RowView(i), table.Value.RowView(id))
	}
	back := func(g *tensor.Tensor) {
		if !table.requiresGrad {
			return
		}
		gt := tensor.New(table.Value.Rows, table.Value.Cols)
		for i, id := range ids {
			if id < 0 {
				continue
			}
			grow := gt.RowView(id)
			for j, gv := range g.RowView(i) {
				grow[j] += gv
			}
		}
		table.accumGrad(gt)
	}
	return newNode(v, back, table)
}
