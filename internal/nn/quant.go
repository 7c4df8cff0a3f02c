package nn

import (
	"fmt"
	"math"

	"cnnrev/internal/tensor"
)

// QuantNetwork is a post-training symmetric-int8 quantization of a Network:
// weights per layer and activations per edge carry one scale each;
// convolutions and FC layers accumulate in int32. It models the numeric
// regime of int8 inference accelerators, where feature maps and filters
// occupy one byte per element in DRAM.
type QuantNetwork struct {
	Net *Network
	// WQ/WScale hold each parameterized layer's quantized weights.
	WQ     [][]int8
	WScale []float32
	// AScale[i] is the activation scale of layer i's output (AInScale is
	// the network input's).
	AScale   []float32
	AInScale float32
}

// QuantizeNetwork calibrates activation ranges by running the float network
// over the calibration inputs and quantizes every parameterized layer.
func QuantizeNetwork(n *Network, calib [][]float32) (*QuantNetwork, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("nn: quantization needs calibration inputs")
	}
	q := &QuantNetwork{
		Net:    n,
		WQ:     make([][]int8, len(n.Specs)),
		WScale: make([]float32, len(n.Specs)),
		AScale: make([]float32, len(n.Specs)),
	}
	for i, p := range n.Params {
		if p == nil {
			continue
		}
		wp := tensor.ChooseScale(p.W.Data)
		q.WQ[i] = tensor.Quantize(p.W.Data, wp)
		q.WScale[i] = wp.Scale
	}
	// Calibrate: track max |activation| per layer and at the input.
	var inMax float32
	actMax := make([]float32, len(n.Specs))
	st := n.newState(false)
	for _, x := range calib {
		for _, v := range x {
			if a := abs32(v); a > inMax {
				inMax = a
			}
		}
		n.forward(st, x)
		for i := range n.Specs {
			for _, v := range st.out[i] {
				if a := abs32(v); a > actMax[i] {
					actMax[i] = a
				}
			}
		}
	}
	if inMax == 0 {
		inMax = 1
	}
	q.AInScale = inMax / 127
	for i, m := range actMax {
		if m == 0 {
			m = 1
		}
		q.AScale[i] = m / 127
	}
	return q, nil
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Infer runs int8 inference on one sample, returning float32 logits.
// Activations travel between layers as int8 at the calibrated scales.
func (q *QuantNetwork) Infer(x []float32) []float32 {
	n := q.Net
	qIn := tensor.Quantize(x, tensor.QuantParams{Scale: q.AInScale})
	acts := make([][]int8, len(n.Specs))
	var lastFloat []float32

	inputOf := func(i, j int) ([]int8, float32) {
		ref := n.Specs[i].Inputs[j]
		if ref == InputRef {
			return qIn, q.AInScale
		}
		return acts[ref], q.AScale[ref]
	}

	for i := range n.Specs {
		spec := &n.Specs[i]
		out := make([]float32, 0)
		switch spec.Kind {
		case KindConv:
			in := n.InShapes[i][0]
			qx, xs := inputOf(i, 0)
			conv := tensor.Conv2D{InC: in.C, OutC: spec.OutC, F: spec.F, S: spec.S, P: spec.P}
			c := spec.ConvOut(in)
			out = make([]float32, c.Len())
			conv.QuantForward(qx, in.H, in.W, q.WQ[i], xs, q.WScale[i], n.Params[i].B.Data, out)
			if spec.ReLU {
				tensor.ReLUForward(out, out)
			}
			if spec.Pool != PoolNone {
				pooled := make([]float32, n.Shapes[i].Len())
				p := tensor.Pool2D{F: spec.PoolF, S: spec.PoolS, P: spec.PoolP}
				if spec.Pool == PoolMax {
					p.MaxForward(out, c.C, c.H, c.W, pooled, nil)
				} else {
					p.AvgForward(out, c.C, c.H, c.W, pooled)
				}
				out = pooled
			}
		case KindFC:
			in := n.InShapes[i][0]
			qx, xs := inputOf(i, 0)
			l := tensor.Linear{In: in.Len(), Out: spec.OutC}
			out = make([]float32, spec.OutC)
			l.QuantForward(qx, q.WQ[i], xs, q.WScale[i], n.Params[i].B.Data, out)
			if spec.ReLU {
				tensor.ReLUForward(out, out)
			}
		case KindConcat:
			out = make([]float32, n.Shapes[i].Len())
			off := 0
			for j := range spec.Inputs {
				qx, xs := inputOf(i, j)
				seg := tensor.Dequantize(qx, tensor.QuantParams{Scale: xs})
				copy(out[off:off+len(seg)], seg)
				off += len(seg)
			}
		case KindEltwise:
			out = make([]float32, n.Shapes[i].Len())
			for j := range spec.Inputs {
				qx, xs := inputOf(i, j)
				for k2, v := range qx {
					out[k2] += float32(v) * xs
				}
			}
		}
		// Requantize the layer output for downstream consumers.
		acts[i] = tensor.Quantize(out, tensor.QuantParams{Scale: q.AScale[i]})
		lastFloat = out
	}
	return lastFloat
}

// Accuracy returns top-k accuracy of the quantized network.
func (q *QuantNetwork) Accuracy(xs [][]float32, ys []int, k int) float64 {
	hits := 0
	for i, x := range xs {
		out := q.Infer(x)
		t := tensor.FromSlice(out, len(out))
		for _, idx := range t.TopK(k) {
			if idx == ys[i] {
				hits++
				break
			}
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return float64(hits) / float64(len(xs))
}

// MaxLogitError returns the largest |quantized − float| logit difference
// over the samples, normalized by the float logit magnitude range.
func (q *QuantNetwork) MaxLogitError(xs [][]float32) float64 {
	var worst float64
	for _, x := range xs {
		fq := q.Infer(x)
		ff := q.Net.Infer(x)
		var rng float32
		for _, v := range ff {
			if a := abs32(v); a > rng {
				rng = a
			}
		}
		if rng == 0 {
			rng = 1
		}
		for i := range ff {
			e := math.Abs(float64(fq[i]-ff[i])) / float64(rng)
			if e > worst {
				worst = e
			}
		}
	}
	return worst
}
