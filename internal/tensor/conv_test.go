package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestOutDimArithmeticMatchesPaperTable4 pins the conv/pool output-size
// arithmetic against every row of paper Table 4 (AlexNet candidate layer
// configurations). The entire structure attack rests on this relation.
func TestOutDimArithmeticMatchesPaperTable4(t *testing.T) {
	rows := []struct {
		name                               string
		wIFM, wOFM, fc, sc, pc, fp, sp, pp int
		pooled                             bool
	}{
		{"CONV1_1", 227, 27, 11, 4, 1, 3, 2, 0, true},
		{"CONV1_2", 227, 27, 11, 4, 2, 4, 2, 0, true},
		{"CONV2_1", 27, 13, 5, 1, 2, 3, 2, 0, true},
		{"CONV2_2", 27, 26, 10, 1, 4, 0, 0, 0, false},
		{"CONV3_1", 13, 13, 3, 1, 1, 0, 0, 0, false},
		{"CONV3_2", 26, 13, 6, 2, 2, 0, 0, 0, false},
		{"CONV4", 13, 13, 3, 1, 1, 0, 0, 0, false},
		{"CONV5_1", 13, 6, 3, 1, 1, 3, 2, 0, true},
		{"CONV5_2", 13, 12, 6, 1, 2, 0, 0, 0, false},
		{"CONV5_3", 13, 3, 3, 2, 0, 2, 2, 0, true},
		{"CONV5_4", 13, 3, 3, 2, 0, 4, 1, 0, true},
		{"CONV5_5", 13, 3, 3, 2, 1, 3, 2, 0, true},
		{"CONV5_6", 13, 4, 2, 1, 0, 3, 3, 0, true},
	}
	for _, r := range rows {
		wc := ConvOutDim(r.wIFM, r.fc, r.sc, r.pc)
		got := wc
		if r.pooled {
			got = PoolOutDim(wc, r.fp, r.sp, r.pp)
		}
		if got != r.wOFM {
			t.Errorf("%s: W_OFM = %d (conv out %d), paper says %d", r.name, got, wc, r.wOFM)
		}
	}
}

func TestConvOutDimEdgeCases(t *testing.T) {
	if d := ConvOutDim(5, 7, 1, 0); d != 0 {
		t.Fatalf("kernel larger than input should give 0, got %d", d)
	}
	if d := ConvOutDim(5, 7, 1, 1); d != 1 {
		t.Fatalf("padding rescue: got %d, want 1", d)
	}
	if d := ConvOutDim(5, 3, 0, 0); d != 0 {
		t.Fatalf("zero stride should give 0, got %d", d)
	}
	if d := PoolOutDim(55, 3, 2, 0); d != 27 {
		t.Fatalf("ceil pool 55/3/2 = %d, want 27", d)
	}
	if d := ConvOutDim(55, 3, 2, 0); d != 27 {
		t.Fatalf("floor conv 55/3/2 = %d, want 27", d)
	}
	// Case where ceil and floor genuinely differ.
	if f, c := ConvOutDim(6, 2, 2, 0), PoolOutDim(6, 2, 2, 0); f != 3 || c != 3 {
		t.Fatalf("6/2/2: floor %d ceil %d", f, c)
	}
	if f, c := ConvOutDim(7, 2, 2, 0), PoolOutDim(7, 2, 2, 0); f != 3 || c != 4 {
		t.Fatalf("7/2/2: floor %d ceil %d, want 3 and 4", f, c)
	}
}

// naiveConv is a direct 7-loop reference convolution.
func naiveConv(c Conv2D, in []float32, h, w int, weights, bias []float32) []float32 {
	oh, ow := c.OutDims(h, w)
	out := make([]float32, c.OutC*oh*ow)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.F; ky++ {
						iy := oy*c.S - c.P + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.F; kx++ {
							ix := ox*c.S - c.P + kx
							if ix < 0 || ix >= w {
								continue
							}
							wv := weights[((oc*c.InC+ic)*c.F+ky)*c.F+kx]
							s += wv * in[(ic*h+iy)*w+ix]
						}
					}
				}
				if bias != nil {
					s += bias[oc]
				}
				out[(oc*oh+oy)*ow+ox] = s
			}
		}
	}
	return out
}

func TestConvForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		c    Conv2D
		h, w int
	}{
		{Conv2D{InC: 1, OutC: 1, F: 1, S: 1, P: 0}, 3, 3},
		{Conv2D{InC: 3, OutC: 4, F: 3, S: 1, P: 1}, 7, 7},
		{Conv2D{InC: 2, OutC: 5, F: 5, S: 2, P: 2}, 11, 11},
		{Conv2D{InC: 3, OutC: 2, F: 11, S: 4, P: 0}, 23, 23},
		{Conv2D{InC: 4, OutC: 3, F: 2, S: 3, P: 1}, 9, 8},
	}
	for _, tc := range cases {
		in := randSlice(rng, tc.c.InC*tc.h*tc.w)
		weights := randSlice(rng, tc.c.OutC*tc.c.InC*tc.c.F*tc.c.F)
		bias := randSlice(rng, tc.c.OutC)
		oh, ow := tc.c.OutDims(tc.h, tc.w)
		out := make([]float32, tc.c.OutC*oh*ow)
		tc.c.Forward(in, tc.h, tc.w, weights, bias, out, nil)
		want := naiveConv(tc.c, in, tc.h, tc.w, weights, bias)
		if d := maxDiff(out, want); d > 1e-3 {
			t.Errorf("conv %+v on %dx%d: max diff %g", tc.c, tc.h, tc.w, d)
		}
	}
}

// TestIm2colCol2imAdjoint checks the defining adjoint property
// <im2col(x), y> == <x, col2im(y)> for random x, y, which is exactly what
// backprop correctness requires.
func TestIm2colCol2imAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := Conv2D{InC: 2, OutC: 1, F: 3, S: 2, P: 1}
	h, w := 7, 6
	oh, ow := c.OutDims(h, w)
	k := c.InC * c.F * c.F
	x := randSlice(rng, c.InC*h*w)
	y := randSlice(rng, k*oh*ow)

	cols := make([]float32, k*oh*ow)
	c.Im2col(x, h, w, cols)
	var lhs float64
	for i := range cols {
		lhs += float64(cols[i]) * float64(y[i])
	}

	back := make([]float32, c.InC*h*w)
	c.Col2im(y, h, w, back)
	var rhs float64
	for i := range back {
		rhs += float64(back[i]) * float64(x[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint violated: %g vs %g", lhs, rhs)
	}
}

// TestConvBackwardNumerical verifies conv gradients against central finite
// differences on a small problem.
func TestConvBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := Conv2D{InC: 2, OutC: 3, F: 3, S: 2, P: 1}
	h, w := 6, 5
	oh, ow := c.OutDims(h, w)
	nw := c.OutC * c.InC * c.F * c.F
	in := randSlice(rng, c.InC*h*w)
	weights := randSlice(rng, nw)
	bias := randSlice(rng, c.OutC)
	dOut := randSlice(rng, c.OutC*oh*ow)

	// Scalar objective L = <out, dOut>; its gradients are what Backward returns.
	loss := func() float64 {
		out := make([]float32, c.OutC*oh*ow)
		c.Forward(in, h, w, weights, bias, out, nil)
		var s float64
		for i := range out {
			s += float64(out[i]) * float64(dOut[i])
		}
		return s
	}

	dW := make([]float32, nw)
	dB := make([]float32, c.OutC)
	dIn := make([]float32, c.InC*h*w)
	cols := make([]float32, c.InC*c.F*c.F*oh*ow)
	c.Im2col(in, h, w, cols)
	c.Backward(cols, h, w, weights, dOut, dW, dB, dIn, nil)

	const eps = 1e-2
	check := func(buf []float32, grad []float32, name string, samples int) {
		for s := 0; s < samples; s++ {
			i := rng.Intn(len(buf))
			orig := buf[i]
			buf[i] = orig + eps
			lp := loss()
			buf[i] = orig - eps
			lm := loss()
			buf[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > 2e-2*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: numeric %g, analytic %g", name, i, num, grad[i])
			}
		}
	}
	check(weights, dW, "dW", 12)
	check(bias, dB, "dB", 3)
	check(in, dIn, "dIn", 12)
}

// Property: convolution is linear in its input.
func TestQuickConvLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := Conv2D{InC: 1, OutC: 2, F: 3, S: 1, P: 1}
	h, w := 5, 5
	oh, ow := c.OutDims(h, w)
	weights := randSlice(rng, c.OutC*c.F*c.F)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x1, x2 := randSlice(r, h*w), randSlice(r, h*w)
		sum := make([]float32, h*w)
		for i := range sum {
			sum[i] = x1[i] + x2[i]
		}
		o1 := make([]float32, c.OutC*oh*ow)
		o2 := make([]float32, c.OutC*oh*ow)
		os := make([]float32, c.OutC*oh*ow)
		c.Forward(x1, h, w, weights, nil, o1, nil)
		c.Forward(x2, h, w, weights, nil, o2, nil)
		c.Forward(sum, h, w, weights, nil, os, nil)
		for i := range os {
			if math.Abs(float64(os[i]-(o1[i]+o2[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// naiveIm2col is the per-element reference expansion: every column entry
// is tested against the input bounds on its own.
func naiveIm2col(c Conv2D, in []float32, h, w int) []float32 {
	oh, ow := c.OutDims(h, w)
	cols := make([]float32, c.InC*c.F*c.F*oh*ow)
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.F; ky++ {
			for kx := 0; kx < c.F; kx++ {
				r := (ch*c.F+ky)*c.F + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*c.S-c.P+ky, ox*c.S-c.P+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							cols[(r*oh+oy)*ow+ox] = in[(ch*h+iy)*w+ix]
						}
					}
				}
			}
		}
	}
	return cols
}

// naiveCol2im is the per-element reference scatter, accumulating in
// (ch, ky, kx, oy, ox) order.
func naiveCol2im(c Conv2D, cols []float32, h, w int, dIn []float32) {
	oh, ow := c.OutDims(h, w)
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.F; ky++ {
			for kx := 0; kx < c.F; kx++ {
				r := (ch*c.F+ky)*c.F + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*c.S-c.P+ky, ox*c.S-c.P+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dIn[(ch*h+iy)*w+ix] += cols[(r*oh+oy)*ow+ox]
						}
					}
				}
			}
		}
	}
}

// checkIm2colCol2im compares Im2col and Col2im bit for bit against the
// naive references on exactly sized buffers, so any out-of-range run
// panics. Im2col's output starts as NaN to prove every entry is written,
// and Col2im accumulates onto a random dIn to prove the addition order.
func checkIm2colCol2im(t *testing.T, c Conv2D, h, w int, rng *rand.Rand) {
	t.Helper()
	oh, ow := c.OutDims(h, w)
	k := c.InC * c.F * c.F
	in := randSlice(rng, c.InC*h*w)
	cols := make([]float32, k*oh*ow)
	for i := range cols {
		cols[i] = float32(math.NaN())
	}
	if goh, gow := c.Im2col(in, h, w, cols); goh != oh || gow != ow {
		t.Fatalf("%+v on %dx%d: Im2col returned %dx%d, want %dx%d", c, h, w, goh, gow, oh, ow)
	}
	want := naiveIm2col(c, in, h, w)
	for i := range want {
		if math.Float32bits(cols[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%+v on %dx%d: Im2col[%d] = %v, want %v", c, h, w, i, cols[i], want[i])
		}
	}

	grad := randSlice(rng, k*oh*ow)
	got := randSlice(rng, c.InC*h*w)
	ref := append([]float32(nil), got...)
	c.Col2im(grad, h, w, got)
	naiveCol2im(c, grad, h, w, ref)
	for i := range ref {
		if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("%+v on %dx%d: Col2im[%d] = %v, want %v", c, h, w, i, got[i], ref[i])
		}
	}
}

// TestIm2colCol2imMatchNaive is the differential test of the run-based
// expansion and scatter: random channel counts, strides 1–4, padding 0–3
// and kernels up to wider than the input, including windows whose whole
// row (or whole column range) lies in the padding.
func TestIm2colCol2imMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	fixed := []struct {
		c    Conv2D
		h, w int
	}{
		{Conv2D{InC: 1, F: 5, S: 1, P: 3}, 1, 1},    // every run empty for the outer kx/ky
		{Conv2D{InC: 2, F: 1, S: 2, P: 3}, 2, 3},    // rows and columns purely in padding
		{Conv2D{InC: 1, F: 8, S: 4, P: 3}, 3, 2},    // kernel wider than the input
		{Conv2D{InC: 3, F: 11, S: 4, P: 1}, 31, 31}, // AlexNet conv1 kernel, stride, padding
		{Conv2D{InC: 2, F: 1, S: 1, P: 0}, 5, 7},    // 1×1: every run is the whole row
		{Conv2D{InC: 1, F: 3, S: 3, P: 2}, 4, 4},
	}
	for _, tc := range fixed {
		checkIm2colCol2im(t, tc.c, tc.h, tc.w, rng)
	}
	for n := 0; n < 400; n++ {
		c := Conv2D{InC: 1 + rng.Intn(3), OutC: 1, S: 1 + rng.Intn(4), P: rng.Intn(4)}
		h, w := 1+rng.Intn(12), 1+rng.Intn(12)
		c.F = 1 + rng.Intn(max(h, w)+2*c.P+2)
		checkIm2colCol2im(t, c, h, w, rng)
	}
}

// FuzzIm2colCol2im drives the differential check with arbitrary geometry,
// bounded to small planes so each input runs in microseconds.
func FuzzIm2colCol2im(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(5), uint8(1), uint8(3), int64(1))
	f.Add(uint8(3), uint8(31), uint8(31), uint8(11), uint8(4), uint8(1), int64(2))
	f.Add(uint8(2), uint8(2), uint8(3), uint8(1), uint8(2), uint8(3), int64(3))
	f.Fuzz(func(t *testing.T, inC, h, w, fw, s, p uint8, seed int64) {
		c := Conv2D{InC: 1 + int(inC%4), OutC: 1, F: 1 + int(fw%24), S: 1 + int(s%4), P: int(p % 4)}
		checkIm2colCol2im(t, c, 1+int(h%20), 1+int(w%20), rand.New(rand.NewSource(seed)))
	})
}

// benchIm2col times one expansion of a real network layer's input.
func benchIm2col(b *testing.B, c Conv2D, h, w int) {
	in := randSlice(rand.New(rand.NewSource(1)), c.InC*h*w)
	oh, ow := c.OutDims(h, w)
	cols := make([]float32, c.InC*c.F*c.F*oh*ow)
	b.ReportAllocs()
	b.SetBytes(int64(len(cols)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Im2col(in, h, w, cols)
	}
}

func BenchmarkIm2col(b *testing.B) {
	b.Run("AlexNetConv1", func(b *testing.B) { benchIm2col(b, Conv2D{InC: 3, F: 11, S: 4, P: 1}, 227, 227) })
	b.Run("AlexNetConv2", func(b *testing.B) { benchIm2col(b, Conv2D{InC: 96, F: 5, S: 1, P: 2}, 27, 27) })
	b.Run("LeNetConv1", func(b *testing.B) { benchIm2col(b, Conv2D{InC: 1, F: 5, S: 1, P: 2}, 28, 28) })
	b.Run("SqueezeNetFire2Squeeze1x1", func(b *testing.B) { benchIm2col(b, Conv2D{InC: 96, F: 1, S: 1}, 55, 55) })
}
