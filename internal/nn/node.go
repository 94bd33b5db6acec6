// Package nn implements a small reverse-mode automatic-differentiation
// engine and the neural building blocks used by the LITE reproduction:
// dense layers, 1-D convolutions with max-pooling (the NECS code encoder),
// graph convolutions (the NECS scheduler encoder), LSTM and Transformer
// encoders (ablation baselines), Adam/SGD optimizers, and a
// gradient-reversal operation used by Adaptive Model Update's adversarial
// fine-tuning.
//
// The engine is tensor-valued: every Node holds a matrix, and the backward
// pass propagates matrix-shaped gradients. Graphs are built dynamically per
// forward pass and freed by the garbage collector; only parameter nodes
// persist across steps.
package nn

import (
	"fmt"
	"sync"

	"lite/internal/tensor"
)

// Node is a vertex in the dynamically-built computation graph. Value holds
// the forward result; Grad accumulates ∂loss/∂Value during Backward.
type Node struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requiresGrad bool
	parents      []*Node
	backFn       func(grad *tensor.Tensor)
	name         string
}

// NewParam wraps t as a trainable parameter node.
func NewParam(t *tensor.Tensor, name string) *Node {
	return &Node{Value: t, requiresGrad: true, name: name}
}

// NewConst wraps t as a constant (non-trainable, no gradient) node.
func NewConst(t *tensor.Tensor) *Node {
	return &Node{Value: t}
}

// NewInput is an alias of NewConst for readability at call sites that feed
// model inputs.
func NewInput(t *tensor.Tensor) *Node { return NewConst(t) }

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// Name returns the diagnostic name assigned at construction, if any.
func (n *Node) Name() string { return n.name }

// Scalar returns the single element of a 1×1 node.
func (n *Node) Scalar() float64 {
	if n.Value.Size() != 1 {
		panic(fmt.Sprintf("nn: Scalar called on %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}

// ensureGrad lazily allocates the gradient buffer.
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.Grad == nil {
		n.Grad = tensor.New(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// accumGrad adds g into the node's gradient buffer.
func (n *Node) accumGrad(g *tensor.Tensor) {
	tensor.AddInPlace(n.ensureGrad(), g)
}

// newNode builds an op result node; requiresGrad is inherited from parents.
func newNode(v *tensor.Tensor, back func(grad *tensor.Tensor), parents ...*Node) *Node {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	n := &Node{Value: v, parents: parents}
	if rg {
		n.requiresGrad = true
		n.backFn = back
	}
	return n
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (1×1) node, seeding its gradient with 1. Gradients accumulate into
// every reachable node with requiresGrad set; call ZeroGrad on parameters
// between optimizer steps.
func Backward(root *Node) {
	if root.Value.Size() != 1 {
		panic("nn: Backward root must be scalar")
	}
	ts := topoPool.Get().(*topoScratch)
	defer ts.release()
	order := ts.sort(root)
	root.ensureGrad().Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn(n.Grad)
		}
	}
	// Free intermediate gradient buffers so repeated forward passes that
	// share parameter nodes do not read stale gradients.
	for _, n := range order {
		if len(n.parents) > 0 {
			n.Grad = nil
		}
	}
}

// topoFrame is one entry of the topological sort's iterative DFS stack.
type topoFrame struct {
	n     *Node
	child int
}

// topoScratch is the reusable workspace of one topological sort. Backward
// runs once per training instance, so the visited set and the stacks are
// recycled through topoPool instead of being rebuilt every call.
type topoScratch struct {
	seen  map[*Node]bool
	stack []topoFrame
	order []*Node
}

var topoPool = sync.Pool{New: func() any {
	return &topoScratch{seen: map[*Node]bool{}}
}}

// release drops every node reference — a pooled workspace must not keep a
// finished graph alive — and returns the workspace to topoPool.
func (ts *topoScratch) release() {
	clear(ts.seen)
	clear(ts.order)
	ts.order = ts.order[:0]
	topoPool.Put(ts)
}

// sort returns nodes in topological order (parents before children),
// restricted to the subgraph that requires gradients. The slice is valid
// until release.
func (ts *topoScratch) sort(root *Node) []*Node {
	seen := ts.seen
	// Iterative DFS to avoid deep recursion on long chains (LSTM over
	// hundreds of timesteps).
	stack := append(ts.stack[:0], topoFrame{n: root})
	seen[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.n.parents) {
			p := f.n.parents[f.child]
			f.child++
			if !seen[p] && p.requiresGrad {
				seen[p] = true
				stack = append(stack, topoFrame{n: p})
			}
			continue
		}
		ts.order = append(ts.order, f.n)
		stack = stack[:len(stack)-1]
	}
	clear(stack[:cap(stack)])
	ts.stack = stack[:0]
	return ts.order
}
