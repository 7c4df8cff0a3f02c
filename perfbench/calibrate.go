package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few cores of a shared host whose per-core speed
// moves with its neighbours' load: a fixed loop's time drifts by a third
// within a minute and by half or more between hours. So a run is measured
// against calibrations spread through its setup and its window: the same
// fixed work, owned by the benchmark and unaffected by any change to the
// program, timed while the program is idle. The times that become
// end-to-end metrics are reported at the reference host speed, as raw ×
// calRefSeconds / (mean calibration time). A change that makes the program
// slower still reads slower, since the calibration does not change with
// it; a host that is slower for a while no longer does. One calibration
// lasts about 20 ms, too short to stand for the speed an operation of a
// second or more ran at, so a run is scaled by the mean of all its
// calibrations, not each operation by the nearest one. Per-layer metrics
// (traced runs) stay in raw host seconds.

// calRefSeconds is one calibration sample's time at the reference speed:
// its typical time on the 2-core Xeon VM the benchmark was built on, so
// that reported times there read close to raw ones.
const calRefSeconds = 0.004

const (
	// calDim is the side of the float32 matrices multiplied calMatReps
	// times per sample: dense arithmetic, like GEMM and the simulator's
	// MAC loops.
	calDim     = 48
	calMatReps = 8
	// calWalkLen int32 entries (4 MiB) form one random cycle; calSteps
	// dependent loads through it stand for the trace analysis and
	// allocation-heavy parts, which wait on memory.
	calWalkLen = 1 << 20
	calSteps   = 48 << 10
	// calSamples samples make one calibration; their mean is kept, as an
	// operation's time is the mean of the speeds it ran at. One more pass
	// runs first and is not kept: a core that was idle runs it slower.
	calSamples = 4
)

var (
	calOnce sync.Once
	calA    []float32
	calB    []float32
	calNext []int32
)

func calInit() {
	rng := rand.New(rand.NewSource(1))
	calA = make([]float32, calDim*calDim)
	calB = make([]float32, calDim*calDim)
	for i := range calA {
		calA[i] = float32(rng.NormFloat64())
		calB[i] = float32(rng.NormFloat64())
	}
	// Sattolo's algorithm: a single cycle through every entry.
	calNext = make([]int32, calWalkLen)
	for i := range calNext {
		calNext[i] = int32(i)
	}
	for i := calWalkLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		calNext[i], calNext[j] = calNext[j], calNext[i]
	}
}

// calSample times one pass of the fixed work; c receives the product.
func calSample(c []float32) time.Duration {
	t0 := time.Now()
	for r := 0; r < calMatReps; r++ {
		for i := 0; i < calDim; i++ {
			for j := 0; j < calDim; j++ {
				var s float32
				for k := 0; k < calDim; k++ {
					s += calA[i*calDim+k] * calB[k*calDim+j]
				}
				c[i*calDim+j] = s
			}
		}
	}
	p := int32(0)
	for i := 0; i < calSteps; i++ {
		p = calNext[p]
	}
	c[0] += float32(p)
	return time.Since(t0)
}

// calibrate returns the host's current calibration time in seconds: the
// mean sample time of GOMAXPROCS goroutines sampling at once, as the
// program's operations run on every core and a neighbour may slow only
// some of them.
func calibrate() float64 {
	calOnce.Do(calInit)
	procs := runtime.GOMAXPROCS(0)
	times := make([]float64, procs)
	var wg sync.WaitGroup
	for g := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, calDim*calDim)
			calSample(c)
			for i := 0; i < calSamples; i++ {
				times[g] += calSample(c).Seconds()
			}
		}()
	}
	wg.Wait()
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / float64(procs*calSamples)
}

const (
	// calSpan is how long one measurement calibrates for.
	calSpan = 100 * time.Millisecond
	// calEvery is how often a closed loop measures, between rounds.
	calEvery = time.Second
)

// hostMeter collects the calibrations of one run.
type hostMeter struct {
	sum  float64
	n    int
	last time.Time
}

// measure collects the garbage the program left, as the testing package
// does between benchmark runs, so the collector does not share the host
// with the calibration, then calibrates repeatedly for calSpan.
func (m *hostMeter) measure() {
	runtime.GC()
	start := time.Now()
	for m.n == 0 || time.Since(start) < calSpan {
		m.sum += calibrate()
		m.n++
	}
	m.last = time.Now()
}

// due reports whether calEvery has passed since the last measurement.
func (m *hostMeter) due() bool { return time.Since(m.last) >= calEvery }

// speed is the host's speed over the run relative to the reference
// (above 1 when faster): a raw time times speed is the time at the
// reference speed.
func (m *hostMeter) speed() float64 { return calRefSeconds * float64(m.n) / m.sum }
