package tensor

// ConvOutDim returns the spatial output extent of a convolution with kernel
// width f, per-side padding p and stride s over an input of extent w:
// floor((w − f + 2p)/s) + 1. It returns 0 when the kernel does not fit.
// Every component of the reproduction (simulator, solver, attacks) shares
// this arithmetic so that the constraint equations match the victim exactly.
func ConvOutDim(w, f, s, p int) int {
	num := w - f + 2*p
	if num < 0 || s <= 0 {
		return 0
	}
	return num/s + 1
}

// PoolOutDim returns the spatial output extent of a pooling window of width
// f, per-side padding p and stride s over an input of extent w using
// Caffe-style ceil semantics: ceil((w − f + 2p)/s) + 1. Paper Table 4 is
// only consistent with ceil-mode pooling (e.g. 55 → 27 with F=3, S=2).
func PoolOutDim(w, f, s, p int) int {
	num := w - f + 2*p
	if num < 0 || s <= 0 {
		return 0
	}
	return (num+s-1)/s + 1
}

// Conv2D holds the immutable geometry of a 2-D convolution layer.
type Conv2D struct {
	InC, OutC int // channel counts
	F         int // square kernel width
	S         int // stride
	P         int // per-side zero padding
}

// OutDims returns the spatial output size for an h×w input.
func (c Conv2D) OutDims(h, w int) (oh, ow int) {
	return ConvOutDim(h, c.F, c.S, c.P), ConvOutDim(w, c.F, c.S, c.P)
}

// Im2col expands an input image (InC×H×W, flat) into a column matrix of
// shape (InC·F·F) × (OH·OW) so convolution becomes a single GEMM. cols must
// have capacity InC·F·F·OH·OW.
//
// Each (ch, ky, kx) row is written in runs: output rows whose input row lies
// in the padding are cleared in one piece (the whole row when every input
// column does), and every other output row is a zero prefix, an in-bounds
// run (a copy at stride 1, a strided gather otherwise) and a zero suffix.
func (c Conv2D) Im2col(in []float32, h, w int, cols []float32) (oh, ow int) {
	oh, ow = c.OutDims(h, w)
	rowLen := oh * ow
	if rowLen == 0 {
		return oh, ow
	}
	for ch := 0; ch < c.InC; ch++ {
		plane := in[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < c.F; ky++ {
			ylo, yhi := c.span(ky, h, oh)
			for kx := 0; kx < c.F; kx++ {
				xlo, xhi := c.span(kx, w, ow)
				r := (ch*c.F+ky)*c.F + kx
				dst := cols[r*rowLen : (r+1)*rowLen]
				if xlo == xhi { // every column of the window is padding
					clear(dst)
					continue
				}
				clear(dst[:ylo*ow])
				clear(dst[yhi*ow:])
				for oy := ylo; oy < yhi; oy++ {
					row := dst[oy*ow : (oy+1)*ow]
					clear(row[:xlo])
					clear(row[xhi:])
					run := row[xlo:xhi]
					src := plane[(oy*c.S-c.P+ky)*w+xlo*c.S-c.P+kx:]
					if c.S == 1 {
						copy(run, src)
						continue
					}
					for j := range run {
						run[j] = src[j*c.S]
					}
				}
			}
		}
	}
	return oh, ow
}

// Col2im scatters a column-matrix gradient back onto an input-shaped
// gradient buffer, accumulating where kernel windows overlap. It is the
// adjoint of Im2col and walks the same in-bounds runs; padding positions are
// skipped. Additions into each dIn element happen in (ch, ky, kx, oy, ox)
// order. dIn must be pre-zeroed by the caller if accumulation from scratch
// is desired.
func (c Conv2D) Col2im(cols []float32, h, w int, dIn []float32) {
	oh, ow := c.OutDims(h, w)
	rowLen := oh * ow
	if rowLen == 0 {
		return
	}
	for ch := 0; ch < c.InC; ch++ {
		plane := dIn[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < c.F; ky++ {
			ylo, yhi := c.span(ky, h, oh)
			for kx := 0; kx < c.F; kx++ {
				xlo, xhi := c.span(kx, w, ow)
				if xlo == xhi {
					continue
				}
				r := (ch*c.F+ky)*c.F + kx
				src := cols[r*rowLen : (r+1)*rowLen]
				for oy := ylo; oy < yhi; oy++ {
					run := src[oy*ow+xlo : oy*ow+xhi]
					dst := plane[(oy*c.S-c.P+ky)*w+xlo*c.S-c.P+kx:]
					if c.S == 1 {
						dst = dst[:len(run)]
						for j, v := range run {
							dst[j] += v
						}
						continue
					}
					for j, v := range run {
						dst[j*c.S] += v
					}
				}
			}
		}
	}
}

// span returns the half-open range [lo, hi) of output positions along one
// axis (extent out) whose input coordinate o·S − P + k lies inside [0, n).
// An empty range comes back as lo == hi ≤ out.
func (c Conv2D) span(k, n, out int) (lo, hi int) {
	if d := c.P - k; d > 0 {
		lo = (d + c.S - 1) / c.S
	}
	if m := n - 1 + c.P - k; m >= 0 {
		hi = m/c.S + 1
	}
	hi = min(hi, out)
	lo = min(lo, hi)
	return lo, hi
}

// Forward computes the convolution of a single image in (InC×H×W) with
// weights (OutC × InC·F·F) and per-output-channel bias, writing the result
// (OutC×OH×OW) into out. cols is scratch space of size InC·F·F·OH·OW; pass
// nil to allocate internally.
func (c Conv2D) Forward(in []float32, h, w int, weights, bias, out, cols []float32) (oh, ow int) {
	oh, ow = c.OutDims(h, w)
	k := c.InC * c.F * c.F
	if cols == nil {
		cols = make([]float32, k*oh*ow)
	}
	c.Im2col(in, h, w, cols)
	Gemm(weights, cols, out, c.OutC, k, oh*ow)
	if bias != nil {
		plane := oh * ow
		for oc := 0; oc < c.OutC; oc++ {
			b := bias[oc]
			row := out[oc*plane : (oc+1)*plane]
			for i := range row {
				row[i] += b
			}
		}
	}
	return oh, ow
}

// Backward computes gradients for a single image given upstream gradient
// dOut (OutC×OH×OW) and cols, the Im2col expansion of the forward input
// (what Forward left in its cols scratch). It accumulates into dWeights
// (OutC × InC·F·F) and dBias (OutC), and writes the input gradient into dIn
// (InC×H×W, overwritten). Passing nil for dIn skips input-gradient
// computation (first layer). colsGrad is scratch of the same size as cols;
// pass nil to allocate.
func (c Conv2D) Backward(cols []float32, h, w int, weights, dOut, dWeights, dBias, dIn, colsGrad []float32) {
	oh, ow := c.OutDims(h, w)
	k := c.InC * c.F * c.F
	n := oh * ow

	// dW += dOut · colsᵀ  (OutC×n)·(n×k)
	GemmTransBAcc(dOut, cols, dWeights, c.OutC, n, k)

	if dBias != nil {
		for oc := 0; oc < c.OutC; oc++ {
			var s float32
			for _, v := range dOut[oc*n : (oc+1)*n] {
				s += v
			}
			dBias[oc] += s
		}
	}

	if dIn != nil {
		if colsGrad == nil {
			colsGrad = make([]float32, k*n)
		}
		// dcols = Wᵀ · dOut  (k×OutC)·(OutC×n)
		GemmTransA(weights, dOut, colsGrad, k, c.OutC, n)
		clear(dIn[:c.InC*h*w])
		c.Col2im(colsGrad, h, w, dIn)
	}
}
