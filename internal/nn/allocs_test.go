package nn

import (
	"math/rand"
	"testing"
)

// convNetCandidate is a ConvNet-style candidate as the ranking trains it
// (DepthDiv 16, 32×32×3 input): its first conv is padded and strided, so
// every Im2col path (padding prefix and suffix, strided gather, stride-1
// copy) and the per-layer column buffers of a training state are in play.
func convNetCandidate() *Network {
	return MustNew("convnet-candidate", Shape{C: 3, H: 32, W: 32}, []LayerSpec{
		{Name: "conv1", Kind: KindConv, OutC: 2, F: 6, S: 2, P: 2, ReLU: true,
			Pool: PoolMax, PoolF: 3, PoolS: 2},
		{Name: "conv2", Kind: KindConv, OutC: 2, F: 5, S: 1, P: 2, ReLU: true,
			Pool: PoolAvg, PoolF: 2, PoolS: 2},
		{Name: "conv3", Kind: KindConv, OutC: 4, F: 3, S: 1, P: 1, ReLU: true},
		{Name: "fc4", Kind: KindFC, OutC: 4},
	})
}

// TestTrainerStepSteadyStateAllocs pins the zero-allocation property of the
// training hot loop: once the per-worker buffers are warm, a minibatch step
// must not allocate. The parallel candidate ranking runs dozens of short
// trainings concurrently; per-step garbage would serialize them in the GC.
// Tolerance 1 covers a GC emptying the shared pools' sync.Pool caches
// mid-measurement.
func TestTrainerStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin runs in the non-race job")
	}
	for _, net := range []*Network{LeNet(5), convNetCandidate()} {
		net.InitWeights(3)
		tr := NewTrainer(net)
		tr.BatchSize = 8
		tr.ClipNorm = 1.0

		rng := rand.New(rand.NewSource(1))
		xs := make([][]float32, 16)
		ys := make([]int, 16)
		for i := range xs {
			x := make([]float32, net.Input.Len())
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			xs[i] = x
			ys[i] = i % net.NumClasses()
		}
		batch := []int{0, 1, 2, 3, 4, 5, 6, 7}

		tr.step(xs, ys, batch) // warm up worker buffers and pool scratch
		tr.step(xs, ys, batch)
		allocs := testing.AllocsPerRun(20, func() {
			tr.step(xs, ys, batch)
		})
		if allocs > 1 {
			t.Fatalf("%s: Trainer.step allocates %.1f objects per call in steady state, want 0", net.Name, allocs)
		}
	}
}
