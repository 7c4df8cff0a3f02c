// Package cnnrev is a full reproduction of "Reverse Engineering
// Convolutional Neural Networks Through Side-channel Information Leaks"
// (Hua, Zhang and Suh, DAC 2018).
//
// It provides, built from scratch on the standard library:
//
//   - a CNN substrate (internal/tensor, internal/nn) with inference and
//     training, and the paper's four study networks (LeNet, a CIFAR
//     ConvNet, AlexNet, SqueezeNet with fire modules and bypass paths);
//   - a tile-based CNN inference accelerator simulator (internal/accel)
//     that emits the off-chip DRAM trace an SGX-style adversary observes,
//     with optional dynamic zero pruning of output feature maps;
//   - the structure reverse-engineering attack of the paper's §3
//     (internal/structrev): RAW-dependency layer segmentation, the integer
//     constraint solver of Equations (1)-(8), the execution-time filter,
//     and candidate-structure enumeration;
//   - the weight reverse-engineering attack of §4 (internal/weightrev):
//     zero-crossing binary search against the zero-pruning write-count
//     side channel, pooled variants, zero-weight detection and
//     threshold-based bias recovery;
//   - a Path ORAM defense (internal/oram) demonstrating the
//     countermeasure the paper points to; and
//   - an experiment harness (internal/experiments) regenerating every
//     table and figure of the paper's evaluation.
//
// This facade re-exports the main entry points so the examples and tools
// read naturally; the heavy lifting lives in the internal packages.
package cnnrev

import (
	"context"
	"io"
	"math/rand"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/defense"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/oram"
	"cnnrev/internal/structrev"
)

// Re-exported substrate types.
type (
	// Network is a CNN with learnable parameters.
	Network = nn.Network
	// Shape is a channels×height×width activation shape.
	Shape = nn.Shape
	// AccelConfig parameterizes the victim accelerator.
	AccelConfig = accel.Config
	// Dataflow selects the accelerator's data-reuse schedule.
	Dataflow = accel.Dataflow
	// Trace is an observed off-chip memory trace.
	Trace = memtrace.Trace
	// SolverOptions tunes the structure attack.
	SolverOptions = structrev.Options
	// Structure is one recovered candidate network structure.
	Structure = structrev.Structure
	// LayerConfig is one layer parameter hypothesis (paper Table 2).
	LayerConfig = structrev.LayerConfig
	// StructureReport is the outcome of a structure attack.
	StructureReport = core.StructureReport
	// WeightReport is the outcome of a weight attack.
	WeightReport = core.WeightReport
	// RankConfig parameterizes candidate short-training.
	RankConfig = core.RankConfig
	// CandidateScore is a ranked candidate structure.
	CandidateScore = core.CandidateScore
	// RankResult is the full outcome of a candidate ranking, including the
	// successive-halving rung schedule and epoch accounting.
	RankResult = core.RankResult
	// RungStat is one rung of a successive-halving tournament.
	RungStat = core.RungStat
	// ORAMConfig parameterizes the Path ORAM defense.
	ORAMConfig = oram.Config
	// ORAMStats reports obfuscation cost.
	ORAMStats = oram.Stats
	// DefenseConfig selects a defensive trace transform and its knobs
	// (internal/defense): dummy-traffic injection, bucket padding,
	// address re-randomization, layer fusion, or the ORAM adapter.
	DefenseConfig = defense.Config
	// DefenseStats reports a defense's measured bandwidth/latency cost.
	DefenseStats = defense.Stats
	// DefenseTransform is one defense behind the common Apply interface.
	DefenseTransform = defense.Transform
	// StructureAttackSpec selects the hostile-probe and defense extensions
	// of the §3 pipeline (corruption, tolerant analysis, defensive trace
	// transforms); the zero value reproduces the clean pipeline.
	StructureAttackSpec = core.StructureAttackSpec
)

// DefenseKinds lists the recognized defense kind names.
var DefenseKinds = defense.Kinds

// Model-zoo constructors: the paper's four study networks plus the
// beyond-paper victims (VGG-11, Network-in-Network, a mini ResNet with
// projection shortcuts). depthDiv scales channel counts (1 = paper size).
// Build looks a victim up by name (lenet, convnet, alexnet, squeezenet,
// vgg11, nin, resnetmini); classes 0 picks the model's default (1000 for
// alexnet and squeezenet, 10 otherwise) and depthDiv 0 means 1.
var (
	Build      = nn.Build
	LeNet      = nn.LeNet
	ConvNet    = nn.ConvNet
	AlexNet    = nn.AlexNet
	SqueezeNet = nn.SqueezeNet
	VGG11      = nn.VGG11
	NiN        = nn.NiN
	ResNetMini = nn.ResNetMini
)

// The three accelerator dataflows (data-reuse schedules). Output
// stationary is the paper's baseline; weight and row stationary test the
// claim that the attack survives "regardless of micro-architecture details
// and data reuse strategies".
const (
	OutputStationary = accel.OutputStationary
	WeightStationary = accel.WeightStationary
	RowStationary    = accel.RowStationary
)

// ParseDataflow maps a CLI/API spelling ("os", "weight-stationary", ...)
// to a Dataflow; the empty string means output stationary.
var ParseDataflow = accel.ParseDataflow

// Quantization: post-training symmetric int8 (the numeric regime of int8
// inference accelerators; see internal/nn/quant.go).
type QuantNetwork = nn.QuantNetwork

// QuantizeNetwork calibrates and quantizes a float network to int8.
var QuantizeNetwork = nn.QuantizeNetwork

// SaveNetwork serializes a network (structure + parameters); LoadNetwork
// restores one.
func SaveNetwork(n *Network, w io.Writer) error { return n.Save(w) }

// LoadNetwork deserializes a network written by SaveNetwork.
func LoadNetwork(r io.Reader) (*Network, error) { return nn.Load(r) }

// DefaultAccelConfig returns the baseline accelerator microarchitecture.
func DefaultAccelConfig() AccelConfig { return accel.DefaultConfig() }

// DefaultSolverOptions returns the solver settings used in the paper
// reproduction runs.
func DefaultSolverOptions() SolverOptions { return structrev.DefaultOptions() }

// RunStructureAttack runs a victim once on the simulated accelerator and
// reverse engineers its structure from the trace (paper §3, Algorithm 1).
func RunStructureAttack(net *Network, cfg AccelConfig, opt SolverOptions, seed int64) (*StructureReport, error) {
	return core.RunStructureAttack(net, cfg, opt, seed)
}

// RankCandidates short-trains recovered candidates on a synthetic dataset
// and ranks them by accuracy (the paper's Figures 4-5 methodology).
func RankCandidates(rep *StructureReport, input Shape, rc RankConfig) []CandidateScore {
	return core.RankCandidates(rep, input, rc)
}

// Materialize rebuilds a trainable network from a recovered candidate.
func Materialize(rep *StructureReport, idx int, input Shape, classes, depthDiv int) (*Network, error) {
	return core.Materialize(rep.Analysis, &rep.Structures[idx], input, classes, depthDiv)
}

// RunWeightAttack recovers weight/bias ratios of a victim's first conv
// layer through the zero-pruning side channel (paper §4, Algorithm 2).
func RunWeightAttack(net *Network, cfg AccelConfig) (*WeightReport, error) {
	return core.RunWeightAttack(net, cfg)
}

// RankCandidatesResult is RankCandidates with cooperative cancellation at
// candidate and epoch granularity (cancelled candidates carry a NaN
// accuracy and the context error, sorted after every real score),
// returning the full RankResult: scores plus the rung schedule, total epoch
// work, and how many candidates a MaxCandidates cap skipped. With
// RankConfig.Halving set it runs the successive-halving tournament instead
// of the flat schedule.
func RankCandidatesResult(ctx context.Context, rep *StructureReport, input Shape, rc RankConfig) *RankResult {
	return core.RankCandidatesResult(ctx, rep, input, rc)
}

// AttackTrace runs the post-capture half of the §3 pipeline on an
// observed trace — e.g. one written by cmd/tracegen — given what the
// adversary knows of the victim: the input shape, the classifier width, the
// element size (4 bytes for float32) and the declared dataflow (reported
// back, never assumed). spec applies a defense, a corruption model or the
// tolerant analysis first; onStage, if non-nil, observes each stage. The
// report's TruthIndex is -1, since a trace carries no ground truth. When
// the enumeration stops early (context expiry or opt.MaxStructures) the
// report keeps the deterministic prefix with Partial set, alongside the
// error.
var AttackTrace = core.AttackTrace

// CaptureTrace runs one inference and returns the observable trace.
func CaptureTrace(net *Network, cfg AccelConfig, seed int64) (*Trace, error) {
	cap, err := core.Capture(net, cfg, seed)
	if err != nil {
		return nil, err
	}
	return cap.Result.Trace, nil
}

// CaptureServedTrace runs n back-to-back inferences with distinct random
// inputs and returns the continuous trace a passive observer would record.
func CaptureServedTrace(net *Network, cfg AccelConfig, n int, seed int64) (*Trace, error) {
	sim, err := accel.New(net, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float32, n)
	for i := range xs {
		xs[i] = make([]float32, net.Input.Len())
		for j := range xs[i] {
			xs[i][j] = float32(rng.NormFloat64())
		}
	}
	_, tr, err := sim.RunMany(xs)
	return tr, err
}

// AttackServedTrace analyzes a trace containing several back-to-back
// inferences (a serving accelerator observed continuously), splits it into
// inferences, and solves each slice. Element size is assumed 4 bytes.
func AttackServedTrace(tr *Trace, input Shape, classes int) ([][]Structure, error) {
	return core.AttackServedTrace(tr, input, classes, 4, structrev.DefaultOptions())
}

// ObfuscateTrace replays a trace through Path ORAM.
func ObfuscateTrace(tr *Trace, cfg ORAMConfig) (*Trace, ORAMStats, error) {
	return oram.Obfuscate(tr, cfg)
}

// DefendTrace applies a defensive trace transform (internal/defense) to a
// captured trace and reports its measured cost. The zero config returns a
// byte-identical copy.
func DefendTrace(tr *Trace, cfg DefenseConfig) (*Trace, DefenseStats, error) {
	return defense.Apply(tr, cfg)
}

// RunStructureAttackSpec is RunStructureAttack with cooperative
// cancellation and the hostile-probe and defense spec: the captured trace
// passes through spec.Defense (the victim's countermeasure) and then
// spec.Corrupt (the probe's noise) before analysis. On context expiry it
// returns the partial report found so far (Partial set, structures a
// deterministic prefix of the full enumeration) alongside the context
// error.
func RunStructureAttackSpec(ctx context.Context, net *Network, cfg AccelConfig, opt SolverOptions, seed int64, spec StructureAttackSpec) (*StructureReport, error) {
	return core.RunStructureAttackSpec(ctx, net, cfg, opt, seed, spec, nil)
}

// WriteTrace serializes a trace; ReadTrace deserializes one.
func WriteTrace(tr *Trace, w io.Writer) error { return tr.Write(w) }

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return memtrace.ReadTrace(r) }

// DecodeTrace strictly decodes an in-memory trace buffer. Unlike ReadTrace
// it validates the header against the input length before allocating, and
// only accepts canonical encodings — use it for untrusted uploads.
func DecodeTrace(data []byte) (*Trace, error) { return memtrace.DecodeTrace(data) }

// PrunedConv1 builds the Figure-7 victim layer (pruned AlexNet CONV1).
var PrunedConv1 = nn.PrunedConv1
