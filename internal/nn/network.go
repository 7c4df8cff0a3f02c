package nn

import (
	"fmt"
	"math/rand"

	"cnnrev/internal/tensor"
)

// Param holds the learnable parameters of one conv/fc layer.
type Param struct {
	W *tensor.Tensor // conv: OutC×(InC·F·F); fc: Out×In
	B *tensor.Tensor // OutC
}

// Network is a feed-forward CNN expressed as a DAG of LayerSpecs in
// topological order. It owns the learnable parameters.
type Network struct {
	Name  string
	Input Shape
	Specs []LayerSpec

	// Shapes[i] is the output shape of layer i; InShapes[i] are its resolved
	// input shapes, parallel to Specs[i].Inputs.
	Shapes   []Shape
	InShapes [][]Shape

	// Params[i] is non-nil iff layer i is conv or fc.
	Params []*Param
}

// New builds and validates a network from its specs, allocating (but not
// initializing) parameters. Layer inputs must refer to earlier layers only.
func New(name string, input Shape, specs []LayerSpec) (*Network, error) {
	n := &Network{
		Name:     name,
		Input:    input,
		Specs:    append([]LayerSpec(nil), specs...),
		Shapes:   make([]Shape, len(specs)),
		InShapes: make([][]Shape, len(specs)),
		Params:   make([]*Param, len(specs)),
	}
	for i := range n.Specs {
		spec := &n.Specs[i]
		if len(spec.Inputs) == 0 {
			// Default to simple sequential wiring: the previous layer, or the
			// network input for the first layer.
			spec.Inputs = []int{i - 1}
		}
		ins := make([]Shape, len(spec.Inputs))
		for j, ref := range spec.Inputs {
			switch {
			case ref == InputRef:
				ins[j] = input
			case ref >= 0 && ref < i:
				ins[j] = n.Shapes[ref]
			default:
				return nil, fmt.Errorf("nn: layer %d (%s) references layer %d (must be earlier)", i, spec.Name, ref)
			}
		}
		if err := spec.validate(i, ins); err != nil {
			return nil, fmt.Errorf("nn: %w", err)
		}
		n.InShapes[i] = ins
		n.Shapes[i] = spec.outShape(ins)
		if wc := spec.WeightCount(ins[0]); wc > 0 {
			n.Params[i] = &Param{
				W: tensor.New(wc),
				B: tensor.New(spec.OutC),
			}
		}
	}
	if len(n.Specs) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", name)
	}
	return n, nil
}

// MustNew is New that panics on error; for the hand-written model zoo.
func MustNew(name string, input Shape, specs []LayerSpec) *Network {
	n, err := New(name, input, specs)
	if err != nil {
		panic(err)
	}
	return n
}

// InitWeights fills all parameters with He-normal weights and zero biases,
// deterministically from seed.
func (n *Network) InitWeights(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i, p := range n.Params {
		if p == nil {
			continue
		}
		fanIn := n.InShapes[i][0].Len()
		if n.Specs[i].Kind == KindConv {
			fanIn = n.InShapes[i][0].C * n.Specs[i].F * n.Specs[i].F
		}
		p.W.HeInit(rng, fanIn)
		p.B.Zero()
	}
}

// Output returns the final layer's output shape.
func (n *Network) Output() Shape { return n.Shapes[len(n.Shapes)-1] }

// NumClasses returns the flattened size of the final output (class count for
// a classifier).
func (n *Network) NumClasses() int { return n.Output().Len() }

// MACs returns the multiply-accumulate count of layer i using the paper's
// formula: Wc²·D_OFM·F²·D_IFM with Wc the conv-stage (pre-pool) output
// width. FC layers count Out·In. Concat/eltwise contribute zero.
func (n *Network) MACs(i int) int64 {
	spec := &n.Specs[i]
	in := n.InShapes[i][0]
	switch spec.Kind {
	case KindConv:
		c := spec.ConvOut(in)
		return int64(c.H) * int64(c.W) * int64(spec.OutC) * int64(spec.F) * int64(spec.F) * int64(in.C)
	case KindFC:
		return int64(spec.OutC) * int64(in.Len())
	}
	return 0
}

// TotalMACs sums MACs over all layers.
func (n *Network) TotalMACs() int64 {
	var t int64
	for i := range n.Specs {
		t += n.MACs(i)
	}
	return t
}

// TotalWeights returns the number of learnable parameters (weights + biases).
func (n *Network) TotalWeights() int {
	t := 0
	for _, p := range n.Params {
		if p != nil {
			t += p.W.Len() + p.B.Len()
		}
	}
	return t
}

// state carries per-layer forward activations for one sample; reused across
// calls to avoid allocation.
type state struct {
	convOut [][]float32 // pre-activation conv/fc output (nil for concat/eltwise)
	actOut  [][]float32 // post-ReLU (aliases convOut when no ReLU)
	out     [][]float32 // layer output (post-pool)
	argmax  [][]int     // maxpool selections
	cols    [][]float32 // conv layers' im2col expansion of their input
}

// newState allocates forward state for the network. A training state
// (train set) gives every conv layer its own im2col buffer, so backward
// reuses the columns the forward pass built; an inference state slices
// every layer's columns from one shared buffer sized for the largest layer.
func (n *Network) newState(train bool) *state {
	st := &state{
		convOut: make([][]float32, len(n.Specs)),
		actOut:  make([][]float32, len(n.Specs)),
		out:     make([][]float32, len(n.Specs)),
		argmax:  make([][]int, len(n.Specs)),
		cols:    make([][]float32, len(n.Specs)),
	}
	maxCols := 0
	for i := range n.Specs {
		spec := &n.Specs[i]
		switch spec.Kind {
		case KindConv:
			in := n.InShapes[i][0]
			c := spec.ConvOut(in)
			st.convOut[i] = make([]float32, c.Len())
			st.actOut[i] = st.convOut[i]
			if spec.Pool != PoolNone {
				st.out[i] = make([]float32, n.Shapes[i].Len())
				if spec.Pool == PoolMax {
					st.argmax[i] = make([]int, n.Shapes[i].Len())
				}
			} else {
				st.out[i] = st.convOut[i]
			}
			k := n.colsLen(i)
			if train {
				st.cols[i] = make([]float32, k)
			}
			maxCols = max(maxCols, k)
		case KindFC:
			st.convOut[i] = make([]float32, spec.OutC)
			st.actOut[i] = st.convOut[i]
			st.out[i] = st.convOut[i]
		default:
			st.out[i] = make([]float32, n.Shapes[i].Len())
		}
	}
	if !train {
		shared := make([]float32, maxCols)
		for i := range n.Specs {
			if n.Specs[i].Kind == KindConv {
				st.cols[i] = shared[:n.colsLen(i)]
			}
		}
	}
	return st
}

// colsLen returns the im2col buffer length of conv layer i:
// InC·F·F × (conv-stage OH·OW).
func (n *Network) colsLen(i int) int {
	spec := &n.Specs[i]
	in := n.InShapes[i][0]
	c := spec.ConvOut(in)
	return in.C * spec.F * spec.F * c.H * c.W
}

// input returns the activation buffer feeding input j of layer i.
func (st *state) input(n *Network, i, j int, x []float32) []float32 {
	ref := n.Specs[i].Inputs[j]
	if ref == InputRef {
		return x
	}
	return st.out[ref]
}

// forward runs one sample x (flattened Input shape) through the network,
// filling st. It returns the final output buffer.
func (n *Network) forward(st *state, x []float32) []float32 {
	for i := range n.Specs {
		spec := &n.Specs[i]
		switch spec.Kind {
		case KindConv:
			in := n.InShapes[i][0]
			conv := tensor.Conv2D{InC: in.C, OutC: spec.OutC, F: spec.F, S: spec.S, P: spec.P}
			conv.Forward(st.input(n, i, 0, x), in.H, in.W, n.Params[i].W.Data, n.Params[i].B.Data, st.convOut[i], st.cols[i])
			if spec.ReLU {
				tensor.ReLUForward(st.convOut[i], st.actOut[i])
			}
			if spec.Pool != PoolNone {
				c := spec.ConvOut(in)
				p := tensor.Pool2D{F: spec.PoolF, S: spec.PoolS, P: spec.PoolP, Ceil: false}
				if spec.Pool == PoolMax {
					p.MaxForward(st.actOut[i], c.C, c.H, c.W, st.out[i], st.argmax[i])
				} else {
					p.AvgForward(st.actOut[i], c.C, c.H, c.W, st.out[i])
				}
			}
		case KindFC:
			in := n.InShapes[i][0]
			l := tensor.Linear{In: in.Len(), Out: spec.OutC}
			l.Forward(st.input(n, i, 0, x), n.Params[i].W.Data, n.Params[i].B.Data, st.convOut[i])
			if spec.ReLU {
				tensor.ReLUForward(st.convOut[i], st.actOut[i])
			}
		case KindConcat:
			off := 0
			for j := range spec.Inputs {
				src := st.input(n, i, j, x)
				copy(st.out[i][off:off+len(src)], src)
				off += len(src)
			}
		case KindEltwise:
			out := st.out[i]
			copy(out, st.input(n, i, 0, x))
			for j := 1; j < len(spec.Inputs); j++ {
				src := st.input(n, i, j, x)
				for k, v := range src {
					out[k] += v
				}
			}
		}
	}
	return st.out[len(n.Specs)-1]
}

// Infer runs inference on a single sample and returns a copy of the logits.
func (n *Network) Infer(x []float32) []float32 {
	if len(x) != n.Input.Len() {
		panic(fmt.Sprintf("nn: input has %d elements, network %s expects %v", len(x), n.Name, n.Input))
	}
	st := n.newState(false)
	out := n.forward(st, x)
	res := make([]float32, len(out))
	copy(res, out)
	return res
}

// Predict returns the argmax class of the logits for sample x.
func (n *Network) Predict(x []float32) int {
	out := n.Infer(x)
	best, bi := out[0], 0
	for i, v := range out {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
