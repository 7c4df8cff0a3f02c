// Command experiments regenerates the paper's evaluation artifacts: Tables
// 3-4 and Figures 3, 4, 5 and 7, plus the reproduction's ablations.
//
// Usage:
//
//	experiments -run all [-outdir results] [-scale medium]
//	experiments -run table3,fig7
//
// The -scale flag trades fidelity for time in the training-based figures:
// "smoke" finishes in seconds, "medium" in minutes, "full" trains every
// candidate longer.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering the
// selected experiments, for hunting pipeline hot spots:
//
//	experiments -run fig4 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cnnrev/internal/core"
	"cnnrev/internal/experiments"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "comma-separated: table3,table3x,table4,fig3,fig4,fig5,fig7,noise,rank,dataflow,defense,ablations")
	outdir := flag.String("outdir", "results", "directory for CSV artifacts")
	scale := flag.String("scale", "smoke", "training scale for figs 4/5: smoke|medium|full")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fatal(f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			fatal(err)
			runtime.GC() // report live steady-state heap, not transient garbage
			fatal(pprof.WriteHeapProfile(f))
			fatal(f.Close())
		}()
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*run, ",") {
		want[strings.TrimSpace(s)] = true
	}
	all := want["all"]
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	rc4, rc5 := rankConfigs(*scale)

	if all || want["table3"] {
		timed("table3", func() {
			rows, err := experiments.Table3(nil)
			fatal(err)
			fmt.Print(experiments.FormatTable3(rows))
		})
	}
	if all || want["table3x"] {
		timed("table3x", func() {
			// The beyond-paper victims (VGG-11 is exercised by the structrev
			// tests; its full-scale FC layers are heavy here).
			rows, err := experiments.Table3([]string{"nin", "resnetmini"})
			fatal(err)
			fmt.Print(experiments.FormatTable3(rows))
		})
	}
	if all || want["table4"] {
		timed("table4", func() {
			rep, err := experiments.Table4()
			fatal(err)
			fmt.Print(rep.String())
		})
	}
	if all || want["fig3"] {
		timed("fig3", func() {
			path := filepath.Join(*outdir, "fig3_alexnet_trace.csv")
			f, err := os.Create(path)
			fatal(err)
			defer f.Close()
			rep, err := experiments.Fig3("alexnet", f)
			fatal(err)
			fmt.Print(rep.String())
			fmt.Printf("CSV written to %s\n", path)
		})
	}
	if all || want["fig4"] {
		timed("fig4", func() {
			rep, err := experiments.Fig4(rc4)
			fatal(err)
			fmt.Print(rep.String())
		})
	}
	if all || want["fig5"] {
		timed("fig5", func() {
			rep, err := experiments.Fig5(rc5)
			fatal(err)
			fmt.Print(rep.String())
		})
	}
	if all || want["fig7"] {
		timed("fig7", func() {
			filters := 96
			if *scale == "smoke" {
				filters = 16
			}
			rep, err := experiments.Fig7(filters)
			fatal(err)
			fmt.Print(rep.String())
		})
	}
	if all || want["noise"] {
		timed("noise", func() {
			points, err := experiments.NoiseSweep(nil)
			fatal(err)
			md := experiments.FormatNoiseSweep(points)
			fmt.Print(md)
			path := filepath.Join(*outdir, "noise_sweep.md")
			fatal(os.WriteFile(path, []byte(md), 0o644))
			fmt.Printf("markdown written to %s\n", path)
		})
	}
	if all || want["rank"] {
		timed("rank", func() {
			rows, err := experiments.RankPerf(*scale)
			fatal(err)
			md := experiments.FormatRankPerf(*scale, rows)
			fmt.Print(md)
			mdPath := filepath.Join(*outdir, "perf_rank.md")
			fatal(os.WriteFile(mdPath, []byte(md), 0o644))
			jsonPath := filepath.Join(*outdir, "bench_rank.json")
			fatal(experiments.WriteBenchRankJSON(jsonPath, *scale, rows))
			fmt.Printf("markdown written to %s, JSON to %s\n", mdPath, jsonPath)
		})
	}
	if all || want["dataflow"] {
		timed("dataflow", func() {
			rows, err := experiments.DataflowMatrix(nil)
			fatal(err)
			md := experiments.FormatDataflowMatrix(rows)
			fmt.Print(md)
			path := filepath.Join(*outdir, "dataflow_matrix.md")
			fatal(os.WriteFile(path, []byte(md), 0o644))
			fmt.Printf("markdown written to %s\n", path)
		})
	}
	if all || want["defense"] {
		timed("defense", func() {
			// The smoke scale keeps CI honest without the large-net captures:
			// one MNIST-scale victim against a defense subset.
			var models, defenses []string
			if *scale == "smoke" {
				models = []string{"lenet"}
				defenses = []string{"none", "pad", "fuse"}
			}
			rows, err := experiments.DefenseMatrix(models, defenses)
			fatal(err)
			md := experiments.FormatDefenseMatrix(rows)
			fmt.Print(md)
			path := filepath.Join(*outdir, "defense_matrix.md")
			fatal(os.WriteFile(path, []byte(md), 0o644))
			fmt.Printf("markdown written to %s\n", path)
		})
	}
	if all || want["ablations"] {
		timed("ablations", func() {
			rows, err := experiments.AblationTimingSweep("alexnet", nil)
			fatal(err)
			fmt.Print(experiments.FormatTimingSweep("alexnet", rows))

			kb, err := experiments.AblationKernelBound("alexnet", nil)
			fatal(err)
			fmt.Print(experiments.FormatKernelBound("alexnet", kb))

			bias, err := experiments.AblationBiasInDRAM("lenet")
			fatal(err)
			fmt.Print(bias.String())

			pt, err := experiments.AblationZeroPruneTraffic(nil)
			fatal(err)
			fmt.Print(experiments.FormatPruneTraffic(pt))

			or, err := experiments.AblationORAM("lenet")
			fatal(err)
			fmt.Print(or.String())

			bs, err := experiments.AblationBlockSize("lenet", nil)
			fatal(err)
			fmt.Print(experiments.FormatBlockSize("lenet", bs))

			tn, err := experiments.AblationTimingNoise("alexnet", nil)
			fatal(err)
			fmt.Print(experiments.FormatTimingNoise("alexnet", tn))

			pd, err := experiments.AblationPadDefense()
			fatal(err)
			fmt.Print(pd.String())

			df, err := experiments.AblationDataflow("alexnet")
			fatal(err)
			fmt.Print(experiments.FormatDataflow("alexnet", df))
		})
	}
}

// rankConfigs maps the scale flag to Fig-4/5 training configurations.
func rankConfigs(scale string) (core.RankConfig, core.RankConfig) {
	switch scale {
	case "full":
		return core.RankConfig{Classes: 8, PerClass: 40, Epochs: 3, DepthDiv: 16, Seed: 9},
			core.RankConfig{Classes: 8, PerClass: 30, Epochs: 3, DepthDiv: 16, TopK: 5, Seed: 9}
	case "medium":
		return core.RankConfig{Classes: 6, PerClass: 30, Epochs: 2, DepthDiv: 24, Seed: 9},
			core.RankConfig{Classes: 8, PerClass: 20, Epochs: 3, DepthDiv: 24, TopK: 5, Seed: 9}
	default: // smoke
		return core.RankConfig{Classes: 3, PerClass: 6, Epochs: 1, DepthDiv: 48, Seed: 9, MaxCandidates: 6},
			core.RankConfig{Classes: 6, PerClass: 8, Epochs: 1, DepthDiv: 32, TopK: 5, Seed: 9}
	}
}

func timed(name string, f func()) {
	fmt.Printf("==== %s ====\n", name)
	start := time.Now()
	f()
	fmt.Printf("[%s took %s]\n\n", name, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
