package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/experiments"
	"cnnrev/internal/nn"
	"cnnrev/internal/weightrev"
)

// weightCases alternate in weights-oracle.
var weightCases = []string{"fig7_fast", "lenet_trace"}

// weightsLimit is weights-oracle's latency limit for one round (one attack
// of each case): about two and a half times its 0.8 s on a 2-core Xeon.
const weightsLimit = 2 * time.Second

// maxRatioErr is the paper's precision bound on recovered w/b ratios.
const maxRatioErr = 1.0 / 1024

// probeQueries is how many single-pixel queries each per-query probe times.
const probeQueries = 2000

// The victims are fixed, not drawn from the run seed: the attack's query
// count depends on the weights, and it is an exact count that must repeat
// across runs. The seed orders the cases within each round.
func fig7Victim() *nn.Network { return experiments.PrunedConv1(16, 0.25, 42) }

// lenetConv1Victim is a single conv layer with LeNet's first-layer
// geometry (1x28x28 input, 6 filters of 5x5) minus pooling and padding,
// which the §4 corner iteration cannot reach: signed weights bounded away
// from zero, 20% exact zeros, positive bias.
func lenetConv1Victim() *nn.Network {
	spec := nn.LayerSpec{Name: "conv1", Kind: nn.KindConv, OutC: 6, F: 5, S: 1, ReLU: true}
	net := nn.MustNew("lenet-conv1", nn.Shape{C: 1, H: 28, W: 28}, []nn.LayerSpec{spec})
	rng := rand.New(rand.NewSource(31))
	w := net.Params[0].W.Data
	for i := range w {
		if rng.Float64() < 0.2 {
			w[i] = 0
			continue
		}
		mag := 0.05 + 0.25*rng.Float64()
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		w[i] = float32(mag)
	}
	for i := range net.Params[0].B.Data {
		net.Params[0].B.Data[i] = 0.07
	}
	return net
}

func weightVictims() map[string]*nn.Network {
	return map[string]*nn.Network{"fig7_fast": fig7Victim(), "lenet_trace": lenetConv1Victim()}
}

func firstLayerGeometry(net *nn.Network) weightrev.Geometry {
	spec := &net.Specs[0]
	return weightrev.Geometry{In: net.Input, OutC: spec.OutC, F: spec.F, S: spec.S, P: spec.P}
}

// scoreRecovery compares recovered ratios with the victim's true w/b, as
// core.RunWeightAttack scores its own recovery.
func scoreRecovery(net *nn.Network, results []*weightrev.FilterRatios) (maxErr float64, zeroErrors int) {
	w, b := net.Params[0].W.Data, net.Params[0].B.Data
	inC, f := net.Input.C, net.Specs[0].F
	for d, res := range results {
		for c := 0; c < inC; c++ {
			for ky := 0; ky < f; ky++ {
				for kx := 0; kx < f; kx++ {
					wv := w[((d*inC+c)*f+ky)*f+kx]
					zero := res.Zero[c][ky][kx]
					if (wv == 0) != zero {
						zeroErrors++
						continue
					}
					if !zero {
						maxErr = math.Max(maxErr, math.Abs(res.Ratio[c][ky][kx]-float64(wv)/float64(b[d])))
					}
				}
			}
		}
	}
	return maxErr, zeroErrors
}

// weightsObs is what one weight attack is checked on.
type weightsObs struct {
	queries    int
	maxErr     float64
	zeroErrors int
}

func checkWeights(c string, got weightsObs, g weightsGold) error {
	if got.maxErr > maxRatioErr {
		return fmt.Errorf("%s: max ratio error %g exceeds 2^-10", c, got.maxErr)
	}
	if got.zeroErrors != 0 {
		return fmt.Errorf("%s: %d zero weights misclassified", c, got.zeroErrors)
	}
	if got.queries != g.Queries {
		return fmt.Errorf("%s: %d queries, want %d", c, got.queries, g.Queries)
	}
	return nil
}

// weightsWL is weights-oracle: one closed-loop client runs the §4 weight
// attack, alternating the Fig. 7 victim through the analytic FastOracle
// and the LeNet-conv1 victim through the trace-driven TraceOracle.
type weightsWL struct {
	gold    map[string]weightsGold
	rng     *rand.Rand
	victims map[string]*nn.Network
	// obs keeps each case's latest traced observation.
	obs map[string]weightsObs
}

func setupWeights(seed int64, _ time.Duration, g *golden) (instance, error) {
	w := &weightsWL{
		gold:    g.Weights,
		rng:     rand.New(rand.NewSource(seed)),
		victims: weightVictims(),
		obs:     map[string]weightsObs{},
	}
	// One untimed attack of each case starts the tensor pool.
	for _, c := range weightCases {
		if _, _, err := w.attack(c, nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return closedInstance{w}, nil
}

func (w *weightsWL) limit() time.Duration { return weightsLimit }

// attack runs one weight attack on case c; its time excludes scoring.
func (w *weightsWL) attack(c string, tr *tracer, op int) (weightsObs, time.Duration, error) {
	net := w.victims[c]
	root := tr.begin("op", c, op, -1)
	t0 := time.Now()
	if c == "fig7_fast" {
		var rep *core.WeightReport
		var err error
		tr.call("core.RunWeightAttack", c, op, root, func() { rep, err = core.RunWeightAttack(net, accel.Config{}) })
		d := time.Since(t0)
		tr.end(root)
		if err != nil {
			return weightsObs{}, d, err
		}
		return weightsObs{queries: rep.Queries, maxErr: rep.MaxRatioErr, zeroErrors: rep.ZeroErrors}, d, nil
	}
	var o *weightrev.TraceOracle
	var err error
	tr.call("weightrev.NewTraceOracle", c, op, root, func() { o, err = weightrev.NewTraceOracle(net, accel.Config{}, 0) })
	if err != nil {
		tr.end(root)
		return weightsObs{}, time.Since(t0), err
	}
	var results []*weightrev.FilterRatios
	tr.call("weightrev.Attacker.RecoverAllFilters", c, op, root, func() {
		results, err = weightrev.NewAttacker(o, firstLayerGeometry(net)).RecoverAllFilters(context.Background())
	})
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return weightsObs{}, d, err
	}
	maxErr, zeroErrors := scoreRecovery(net, results)
	return weightsObs{queries: o.Queries(), maxErr: maxErr, zeroErrors: zeroErrors}, d, nil
}

func recordWeightsQueries(c string) (int, error) {
	w := &weightsWL{victims: weightVictims()}
	obs, _, err := w.attack(c, nil, -1)
	return obs.queries, err
}

func (w *weightsWL) round(r int, tr *tracer, op int) []opResult {
	order := weightCases
	if w.rng.Intn(2) == 1 {
		order = []string{weightCases[1], weightCases[0]}
	}
	out := make([]opResult, 0, len(order))
	for i, c := range order {
		obs, d, err := w.attack(c, tr, op+i)
		if err == nil {
			err = checkWeights(c, obs, w.gold[c])
		}
		if tr != nil && err == nil {
			w.obs[c] = obs
		}
		out = append(out, opResult{d, err})
	}
	return out
}

// probe times the two calls one trace-driven query is made of:
// Session.RunPrefix of the target layer on a single-pixel input, and the
// whole TraceOracle.CountChannel query around it.
func (w *weightsWL) probe(tr *tracer) error {
	net := w.victims["lenet_trace"]
	sim, err := accel.New(net, accel.Config{ZeroPrune: true})
	if err != nil {
		return err
	}
	ses := sim.NewSession()
	x := make([]float32, net.Input.Len())
	x[3*net.Input.W+4] = 0.5
	if _, err := ses.RunPrefix(x, 0); err != nil {
		return err
	}
	root := tr.begin("probe", "per_query", -1, -1)
	defer tr.end(root)
	id := tr.begin("accel.Session.RunPrefix", "single_pixel", -1, root)
	for i := 0; i < probeQueries; i++ {
		if _, err := ses.RunPrefix(x, 0); err != nil {
			return err
		}
	}
	tr.endBatch(id, probeQueries)

	o, err := weightrev.NewTraceOracle(net, accel.Config{}, 0)
	if err != nil {
		return err
	}
	pixels := []weightrev.Pixel{{C: 0, Y: 3, X: 4, V: 0.5}}
	want := o.CountChannel(0, pixels)
	id = tr.begin("weightrev.TraceOracle.CountChannel", "single_pixel", -1, root)
	for i := 0; i < probeQueries; i++ {
		if got := o.CountChannel(0, pixels); got != want {
			return fmt.Errorf("CountChannel changed from %d to %d", want, got)
		}
	}
	tr.endBatch(id, probeQueries)
	return nil
}

func (w *weightsWL) layers(tr *tracer) map[string]float64 {
	m := map[string]float64{}
	for _, c := range weightCases {
		recover := tr.meanCall("op", c)
		q := w.obs[c].queries
		m["weightrev.recover_s."+c] = recover
		m["weightrev.queries."+c] = float64(q)
		m["weightrev.max_ratio_err."+c] = w.obs[c].maxErr
		if q > 0 {
			m["weightrev.query_us."+c] = recover * 1e6 / float64(q)
		}
	}
	m["accel.prefix_run_us"] = tr.meanCall("accel.Session.RunPrefix", "single_pixel") * 1e6
	m["weightrev.count_us"] = tr.meanCall("weightrev.TraceOracle.CountChannel", "single_pixel") * 1e6
	return m
}
