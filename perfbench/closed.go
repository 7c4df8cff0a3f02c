package main

import (
	"fmt"
	"runtime"
	"time"
)

// opResult is one operation of a closed loop: its time and the first
// check it failed.
type opResult struct {
	lat time.Duration
	err error
}

// closedWorkload is a workload with one client that waits for each
// operation before it starts the next.
type closedWorkload interface {
	// round runs one round of operations (a rotation of victims or of
	// cases); op is the ID of its first operation and tr is nil when the
	// round is untraced.
	round(r int, tr *tracer, op int) []opResult
	// probe makes the traced run's extra per-layer measurements after the
	// window closes.
	probe(tr *tracer) error
	// layers derives the workload's per-layer metrics from the spans.
	layers(tr *tracer) map[string]float64
	// limit is the fixed latency limit of one round.
	limit() time.Duration
}

// runClosed runs whole rounds until the window has passed, calibrating
// the host before the window, every calEvery between rounds and at the
// end, and reports the rounds' times at the reference host speed
// (calibrate.go). A traced run
// alternates untraced and traced rounds, so trace.overhead_frac compares
// the same operations with and without spans; it always completes at
// least one round of each.
func runClosed(w closedWorkload, window time.Duration, tr *tracer, host *hostMeter) (*outcome, error) {
	o := &outcome{limit: w.limit().Seconds()}
	var roundSeconds [2]float64
	var rounds [2]int
	var before, after runtime.MemStats
	host.measure()
	runtime.ReadMemStats(&before)
	start := time.Now()
	op := 0
	var peaks []float64
	for r := 0; ; r++ {
		resetPeakRSS()
		var rt *tracer
		k := 0
		if tr != nil && r%2 == 1 {
			rt, k = tr, 1
		}
		var sum time.Duration
		allOK := true
		for _, res := range w.round(r, rt, op) {
			o.check(res.err)
			allOK = allOK && res.err == nil
			sum += res.lat
			op++
		}
		o.sample(sum.Seconds(), allOK)
		peaks = append(peaks, peakRSSMiB())
		o.busy += sum.Seconds()
		roundSeconds[k] += sum.Seconds()
		rounds[k]++
		done := time.Since(start) >= window && (tr == nil || rounds[1] > 0)
		if done || host.due() {
			host.measure()
		}
		if done {
			break
		}
	}
	o.scale(host.speed())
	o.busy *= o.speed
	runtime.ReadMemStats(&after)
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.peakRSS = median(peaks)
	if tr == nil {
		return o, nil
	}
	if err := w.probe(tr); err != nil {
		o.check(fmt.Errorf("probe: %w", err))
	}
	o.layers = w.layers(tr)
	untraced := roundSeconds[0] / float64(rounds[0])
	traced := roundSeconds[1] / float64(rounds[1])
	o.layers["trace.overhead_frac"] = traced/untraced - 1
	return o, nil
}

// closedInstance adapts a closed-loop workload to instance.
type closedInstance struct{ w closedWorkload }

func (c closedInstance) measure(window time.Duration, tr *tracer, host *hostMeter) (*outcome, error) {
	return runClosed(c.w, window, tr, host)
}

func (c closedInstance) close() {}
