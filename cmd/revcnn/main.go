// Command revcnn runs the paper's structure reverse-engineering attack
// (§3) end to end: it simulates a victim on the CNN accelerator, observes
// the off-chip memory trace, and enumerates every network structure
// consistent with the trace. With -trace it attacks a recorded trace
// instead (the tracegen → revcnn workflow); both modes run the same
// pipeline with the same attack flags and print the same report.
//
// Usage:
//
//	revcnn -model alexnet [-modular] [-tol 1.35] [-rank] [-depthdiv 16]
//	revcnn -trace lenet.trace -inw 28 -ind 1 -classes 10 [-tol 1.35] [-rank]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"cnnrev"
)

func main() {
	log.SetFlags(0)
	model := flag.String("model", "lenet", "victim model: lenet|convnet|alexnet|squeezenet|vgg11|nin|resnetmini")
	classes := flag.Int("classes", 0, "classifier outputs (default: the model's, 1000 for alexnet/squeezenet, else 10)")
	modular := flag.Bool("modular", false, "assume repeated modules are identical (paper's SqueezeNet reduction)")
	tol := flag.Float64("tol", 1.35, "execution-time filter tolerance (max cycles-per-MAC spread)")
	rank := flag.Bool("rank", false, "short-train candidates on synthetic data and rank them (Figs 4-5)")
	depthDiv := flag.Int("depthdiv", 16, "depth scaling for candidate training")
	epochs := flag.Int("epochs", 0, "with -rank: per-candidate epoch budget (0 = default)")
	halving := flag.Bool("halving", false, "with -rank: successive-halving tournament instead of full-budget training")
	eta := flag.Int("eta", 0, "with -halving: elimination factor (0 = default 2)")
	minEpochs := flag.Int("minepochs", 0, "with -halving: first-rung epoch budget (0 = default 1)")
	seed := flag.Int64("seed", 2, "victim weight/input seed")
	dataflow := flag.String("dataflow", "", "accelerator dataflow: os|ws|rs (or output-stationary|weight-stationary|row-stationary; default os); with -trace, the declared one")
	defenseKind := flag.String("defense", "", "defensive trace transform on the victim side: none|dummy|pad|rerand|fuse|oram")
	defenseSeed := flag.Int64("defense-seed", 0, "seed for the randomized defenses (dummy, rerand, oram)")
	dummyRate := flag.Float64("defense-dummy-rate", 0, "with -defense dummy: injected records per real record (0 = default 1)")
	bucketBytes := flag.Int("defense-bucket-bytes", 0, "with -defense pad: bucket granularity in bytes (0 = next power of two)")
	onchipBytes := flag.Int64("defense-onchip-bytes", 0, "with -defense fuse: on-chip buffer capacity in bytes (0 = 1 MiB)")
	oramZ := flag.Int("defense-oram-z", 0, "with -defense oram: bucket capacity Z (0 = default 4)")
	oramBlock := flag.Int("defense-oram-block", 0, "with -defense oram: ORAM block size in bytes (0 = default 64)")
	tolerant := flag.Bool("tolerant", false, "use the noise-tolerant analysis path")
	traceFile := flag.String("trace", "", "attack a recorded trace file (from cmd/tracegen) instead of simulating; requires -inw/-ind/-classes")
	inW := flag.Int("inw", 0, "with -trace: input width")
	inD := flag.Int("ind", 0, "with -trace: input channel count")
	flag.Parse()

	df, err := cnnrev.ParseDataflow(*dataflow)
	if err != nil {
		log.Fatalf("revcnn: %v", err)
	}
	dcfg := cnnrev.DefenseConfig{
		Kind: *defenseKind, Seed: *defenseSeed, DummyRate: *dummyRate,
		BucketBytes: *bucketBytes, OnChipBytes: *onchipBytes,
	}
	dcfg.ORAM.Z = *oramZ
	dcfg.ORAM.BlockBytes = *oramBlock
	if err := dcfg.Validate(); err != nil {
		log.Fatalf("revcnn: %v", err)
	}

	opt := cnnrev.DefaultSolverOptions()
	opt.IdenticalModules = *modular
	opt.TimingSpreadMax = *tol
	spec := cnnrev.StructureAttackSpec{Defense: dcfg, Tolerant: *tolerant}

	var rep *cnnrev.StructureReport
	var input cnnrev.Shape
	if *traceFile != "" {
		if *inW <= 0 || *inD <= 0 || *classes <= 0 {
			log.Fatal("revcnn: -trace requires -inw, -ind and -classes")
		}
		tr, err := readTrace(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		input = cnnrev.Shape{C: *inD, H: *inW, W: *inW}
		rep, err = cnnrev.AttackTrace(context.Background(), tr, input, *classes, 4, df, opt, spec, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace %s: %d records, %d block transfers (%v input, %d classes)\n",
			*traceFile, len(tr.Accesses), tr.Blocks(), input, *classes)
	} else {
		net, err := cnnrev.Build(*model, *classes, 1)
		if err != nil {
			log.Fatal(err)
		}
		net.InitWeights(*seed)
		input = net.Input
		rep, err = cnnrev.RunStructureAttackSpec(context.Background(), net, cnnrev.AccelConfig{Dataflow: df}, opt, *seed, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("victim: %s (%v input, %d classes)\n", net.Name, net.Input, net.NumClasses())
	}

	fmt.Printf("accelerator dataflow: %s (detected from trace: %s)\n", rep.Dataflow, rep.DetectedDataflow)
	if rep.Defense != "" {
		fmt.Printf("defense: %s (bandwidth x%.2f, latency x%.2f)\n",
			rep.Defense, rep.DefenseStats.BandwidthOverhead(), rep.DefenseStats.LatencyOverhead())
	}
	fmt.Printf("trace observed: %d bytes of off-chip transfers\n", rep.TraceBytes)
	rep.Analysis.WriteReport(os.Stdout)
	fmt.Printf("candidate structures: %d", len(rep.Structures))
	if *traceFile == "" {
		fmt.Printf(" (true structure found: %v)", rep.TruthIndex >= 0)
	}
	fmt.Println()
	fmt.Println("\nper-layer candidate configurations:")
	for seg := range rep.Analysis.Segments {
		cfgs := rep.PerLayer[seg]
		if len(cfgs) == 0 {
			continue
		}
		fmt.Printf("  segment %d:\n", seg)
		for _, c := range cfgs {
			fmt.Printf("    %s\n", c.String())
		}
	}

	if *rank {
		fmt.Println("\nshort-training candidates on synthetic data...")
		res := cnnrev.RankCandidatesResult(context.Background(), rep, input, cnnrev.RankConfig{
			DepthDiv: *depthDiv, Seed: *seed, Epochs: *epochs,
			Halving: *halving, Eta: *eta, MinEpochs: *minEpochs,
		})
		if res.Halving {
			fmt.Printf("successive-halving tournament: %d epochs total across %d rungs\n",
				res.TotalEpochs, len(res.Rungs))
			for i, rg := range res.Rungs {
				fmt.Printf("  rung %d: %3d candidates x budget %2d  (%4d epochs, %d eliminated)\n",
					i, rg.Candidates, rg.TargetEpochs, rg.Epochs, rg.Eliminated)
			}
		}
		if res.Skipped > 0 {
			fmt.Printf("candidate cap: %d candidates never trained\n", res.Skipped)
		}
		for i, s := range res.Scores {
			mark := ""
			if s.IsTruth {
				mark = "  <-- original structure"
			}
			fmt.Printf("%3d. candidate %2d  acc %.3f  (%d epochs)%s\n", i+1, s.Index, s.Accuracy, s.Epochs, mark)
		}
	}
}

// readTrace loads a trace file written by cmd/tracegen.
func readTrace(path string) (*cnnrev.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cnnrev.ReadTrace(f)
}
