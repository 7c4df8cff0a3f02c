package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// table3Victims is the rotation of table3-structure: the paper's four
// Table 3 networks at paper scale.
var table3Victims = []string{"lenet", "convnet", "alexnet", "squeezenet"}

// structureLimit is table3-structure's latency limit for one rotation:
// about twice a rotation's 2.2 s on a 2-core Xeon.
const structureLimit = 5 * time.Second

// structureObs is what one structure attack is checked on.
type structureObs struct {
	Candidates int    `json:"candidates"`
	Truth      int    `json:"truth_index"`
	TraceBytes uint64 `json:"trace_bytes"`
	// SegmentsSHA hashes the recovered segment table, whose cycle stamps
	// and extents come from the trace.
	SegmentsSHA string `json:"segments_sha256"`
	// The untraced operation calls core.RunStructureAttackSpec, which does
	// not return the trace; the traced one calls the stages itself and
	// also checks the trace's serialized SHA-256, record count and
	// simulated cycles.
	TraceSHA  string `json:"trace_sha256"`
	Records   int    `json:"records"`
	SimCycles uint64 `json:"sim_cycles"`
}

func buildTable3Victim(v string, seed int64) (*nn.Network, error) {
	var net *nn.Network
	switch v {
	case "lenet":
		net = nn.LeNet(10)
	case "convnet":
		net = nn.ConvNet(10)
	case "alexnet":
		net = nn.AlexNet(1000, 1)
	case "squeezenet":
		net = nn.SqueezeNet(1000, 1)
	default:
		return nil, fmt.Errorf("unknown victim %q", v)
	}
	net.InitWeights(seed)
	return net, nil
}

// table3Options is the solver configuration of Table 3: SqueezeNet is
// solved under the identical-modules assumption, as in the paper.
func table3Options(v string) structrev.Options {
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = v == "squeezenet"
	return opt
}

func segmentsSHA(a *structrev.Analysis) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", a.InputRegion, a.Segments)
	return hex.EncodeToString(h.Sum(nil))
}

func traceSHA(tr *memtrace.Trace) (string, error) {
	h := sha256.New()
	if err := tr.Write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkStructure compares an observation with the golden one. Fields the
// untraced operation cannot see are compared only when observed.
func checkStructure(v string, got, want structureObs) error {
	if got.Truth < 0 || got.Truth != want.Truth {
		return fmt.Errorf("%s: truth index %d, want %d", v, got.Truth, want.Truth)
	}
	if got.Candidates != want.Candidates {
		return fmt.Errorf("%s: %d candidates, want %d", v, got.Candidates, want.Candidates)
	}
	if got.TraceBytes != want.TraceBytes {
		return fmt.Errorf("%s: %d trace bytes, want %d", v, got.TraceBytes, want.TraceBytes)
	}
	if got.SegmentsSHA != want.SegmentsSHA {
		return fmt.Errorf("%s: segment table differs from the golden one", v)
	}
	if got.TraceSHA == "" {
		return nil
	}
	if got.TraceSHA != want.TraceSHA {
		return fmt.Errorf("%s: trace SHA-256 differs from the golden one", v)
	}
	if got.Records != want.Records {
		return fmt.Errorf("%s: %d trace records, want %d", v, got.Records, want.Records)
	}
	if got.SimCycles != want.SimCycles {
		return fmt.Errorf("%s: %d simulated cycles, want %d", v, got.SimCycles, want.SimCycles)
	}
	return nil
}

// attackStructure is the untraced operation: build the victim, then one
// call to core.RunStructureAttackSpec.
func attackStructure(v string, weightSeed, captureSeed int64) (structureObs, time.Duration, error) {
	t0 := time.Now()
	net, err := buildTable3Victim(v, weightSeed)
	if err != nil {
		return structureObs{}, 0, err
	}
	rep, err := core.RunStructureAttackSpec(context.Background(), net, accel.Config{}, table3Options(v), captureSeed, core.StructureAttackSpec{}, nil)
	d := time.Since(t0)
	if err != nil {
		return structureObs{}, d, fmt.Errorf("%s: %w", v, err)
	}
	return structureObs{
		Candidates:  len(rep.Structures),
		Truth:       rep.TruthIndex,
		TraceBytes:  rep.TraceBytes,
		SegmentsSHA: segmentsSHA(rep.Analysis),
	}, d, nil
}

// tracedStructure is the traced operation: the same calls
// core.RunStructureAttackSpec makes, in its order, each inside a span.
// It returns the observation, the victim and the operation's time.
func tracedStructure(v string, weightSeed, captureSeed int64, tr *tracer, op int) (structureObs, *nn.Network, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("op", v, op, -1)
	var net *nn.Network
	var err error
	fail := func(err error) (structureObs, *nn.Network, time.Duration, error) {
		tr.end(root)
		return structureObs{}, nil, time.Since(t0), fmt.Errorf("%s: %w", v, err)
	}
	tr.call("nn.build", v, op, root, func() { net, err = buildTable3Victim(v, weightSeed) })
	if err != nil {
		return fail(err)
	}
	var capt *core.CaptureResult
	tr.call("core.Capture", v, op, root, func() { capt, err = core.Capture(net, accel.Config{}, captureSeed) })
	if err != nil {
		return fail(err)
	}
	trace := capt.Result.Trace
	elem := capt.Sim.Config().ElemBytes
	var a *structrev.Analysis
	tr.call("structrev.Analyze", v, op, root, func() { a, err = structrev.Analyze(trace, net.Input.Len()*elem, elem) })
	if err != nil {
		return fail(err)
	}
	tr.call("structrev.DetectDataflow", v, op, root, func() { structrev.DetectDataflow(trace, a, structrev.DetectOptions{}) })
	var structures []structrev.Structure
	tr.call("structrev.SolveCtx", v, op, root, func() {
		structures, err = structrev.SolveCtx(context.Background(), a, net.Input.W, net.Input.C, net.NumClasses(), table3Options(v))
	})
	if err != nil {
		return fail(err)
	}
	tr.call("structrev.UniqueConfigs", v, op, root, func() { structrev.UniqueConfigs(a, structures) })
	truth := -1
	tr.call("core.FindTruth", v, op, root, func() { truth = core.FindTruth(structures, core.GroundTruthConfigs(net)) })
	tr.end(root)
	d := time.Since(t0)

	sha, err := traceSHA(trace)
	if err != nil {
		return structureObs{}, nil, d, err
	}
	res := capt.Result
	last := len(res.LayerCycles) - 1
	return structureObs{
		Candidates:  len(structures),
		Truth:       truth,
		TraceBytes:  trace.Blocks() * uint64(trace.BlockBytes),
		SegmentsSHA: segmentsSHA(a),
		TraceSHA:    sha,
		Records:     len(trace.Accesses),
		SimCycles:   res.LayerStartCycle[last] + res.LayerCycles[last],
	}, net, d, nil
}

// observeStructure runs the traced operation once with the given seed
// for both the weights and the capture input.
func observeStructure(v string, seed int64, tr *tracer, op int) (structureObs, error) {
	obs, _, _, err := tracedStructure(v, seed, seed, tr, op)
	return obs, err
}

// structureWL is table3-structure: one closed-loop client runs whole
// rotations of the §3 structure attack, victim build included.
type structureWL struct {
	gold map[string]structureObs
	rng  *rand.Rand
	// Traced runs keep the last observation and size of each victim, and
	// the last AlexNet for the per-layer probe.
	obs  map[string]structureObs
	macs map[string]int64
	alex *nn.Network
}

func setupStructure(seed int64, _ time.Duration, g *golden) (instance, error) {
	w := &structureWL{
		gold: g.Structure,
		rng:  rand.New(rand.NewSource(seed)),
		obs:  map[string]structureObs{},
		macs: map[string]int64{},
	}
	// One untimed rotation starts the tensor pool and grows the heap to
	// AlexNet's size, so the first timed operation pays no start-up.
	for _, v := range table3Victims {
		if _, _, err := attackStructure(v, seed, seed); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return closedInstance{w}, nil
}

func (w *structureWL) limit() time.Duration { return structureLimit }

func (w *structureWL) round(r int, tr *tracer, op int) []opResult {
	out := make([]opResult, 0, len(table3Victims))
	for i, v := range table3Victims {
		weightSeed, captureSeed := w.rng.Int63(), w.rng.Int63()
		var obs structureObs
		var d time.Duration
		var err error
		if tr == nil {
			obs, d, err = attackStructure(v, weightSeed, captureSeed)
		} else {
			var net *nn.Network
			obs, net, d, err = tracedStructure(v, weightSeed, captureSeed, tr, op+i)
			if err == nil {
				w.obs[v] = obs
				w.macs[v] = net.TotalMACs()
				if v == "alexnet" {
					w.alex = net
				}
			}
		}
		if err == nil {
			err = checkStructure(v, obs, w.gold[v])
		}
		out = append(out, opResult{d, err})
	}
	return out
}

// layerSweeps is how many times the probe times every AlexNet prefix; the
// per-layer time is a difference of two means, so single runs are too noisy.
const layerSweeps = 3

// probe times AlexNet layer by layer: Session.RunPrefix through each layer
// in turn, after one full warm-up run sizes the session's buffers.
func (w *structureWL) probe(tr *tracer) error {
	if w.alex == nil {
		return fmt.Errorf("no traced AlexNet operation ran")
	}
	net := w.alex
	w.alex = nil
	sim, err := accel.New(net, accel.Config{})
	if err != nil {
		return err
	}
	x := make([]float32, net.Input.Len())
	for i := range x {
		x[i] = float32(w.rng.NormFloat64())
	}
	ses := sim.NewSession()
	if _, err := ses.Run(x); err != nil {
		return err
	}
	root := tr.begin("probe", "alexnet_layers", -1, -1)
	defer tr.end(root)
	for sweep := 0; sweep < layerSweeps; sweep++ {
		for l := range net.Specs {
			id := tr.begin("accel.Session.RunPrefix", net.Specs[l].Name, -1, root)
			_, err := ses.RunPrefix(x, l)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

var alexnetLayers = []string{"conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8"}

func (w *structureWL) layers(tr *tracer) map[string]float64 {
	m := map[string]float64{}
	for _, v := range table3Victims {
		capture := tr.meanCall("core.Capture", v)
		m["nn.build_s."+v] = tr.meanCall("nn.build", v)
		m["accel.capture_s."+v] = capture
		m["structrev.analyze_s."+v] = tr.meanCall("structrev.Analyze", v)
		m["structrev.detect_s."+v] = tr.meanCall("structrev.DetectDataflow", v)
		m["structrev.solve_s."+v] = tr.meanCall("structrev.SolveCtx", v)
		if macs := w.macs[v]; macs > 0 {
			m["accel.ns_per_mac."+v] = capture * 1e9 / float64(macs)
		}
		obs := w.obs[v]
		m["accel.sim_cycles."+v] = float64(obs.SimCycles)
		m["accel.trace_records."+v] = float64(obs.Records)
		m["structrev.candidates."+v] = float64(obs.Candidates)
	}
	prev := 0.0
	for _, l := range alexnetLayers {
		t := tr.meanCall("accel.Session.RunPrefix", l)
		m["accel.layer_s.alexnet."+l] = t - prev
		prev = t
	}
	return m
}
