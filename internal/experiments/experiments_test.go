package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cnnrev/internal/core"
)

func TestTable3SmallNetworks(t *testing.T) {
	rows, err := Table3([]string{"lenet", "convnet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.TruthFound {
			t.Errorf("%s: truth lost", r.Network)
		}
		if r.Count < 1 {
			t.Errorf("%s: zero candidates", r.Network)
		}
		if r.Layers != 4 {
			t.Errorf("%s: %d layers, want 4", r.Network, r.Layers)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "lenet") || !strings.Contains(out, "convnet") {
		t.Fatalf("formatting lost rows:\n%s", out)
	}
}

func TestTable3RejectsUnknownModel(t *testing.T) {
	if _, err := Table3([]string{"resnet"}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestFig3CSVWellFormed(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Fig3("lenet", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 4 {
		t.Fatalf("segments = %d", rep.Segments)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,addr,kind,blocks,segment" {
		t.Fatalf("bad header: %s", lines[0])
	}
	if len(lines) != rep.TraceRecords+1 {
		t.Fatalf("%d lines for %d records", len(lines), rep.TraceRecords)
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != 4 {
			t.Fatalf("malformed line %q", l)
		}
	}
	if len(rep.Boundaries) != rep.Segments {
		t.Fatalf("%d boundaries for %d segments", len(rep.Boundaries), rep.Segments)
	}
}

func TestFig7SmallScale(t *testing.T) {
	rep, err := Fig7(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRatioErr > 1.0/1024 {
		t.Fatalf("max error %g exceeds 2^-10", rep.MaxRatioErr)
	}
	if rep.ZeroErrors != 0 {
		t.Fatalf("%d zero misclassifications", rep.ZeroErrors)
	}
	if !strings.Contains(rep.String(), "Figure 7") {
		t.Fatal("report formatting broken")
	}
}

func TestFig4SmokeRanksCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rep, err := Fig4(core.RankConfig{Classes: 3, PerClass: 6, Epochs: 1, DepthDiv: 48, Seed: 9, MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 3 {
		t.Fatalf("trained %d candidates", rep.Candidates)
	}
	if !strings.Contains(rep.String(), "Figure 4") {
		t.Fatal("report formatting broken")
	}
}

func TestAblationsRunAndReport(t *testing.T) {
	rows, err := AblationTimingSweep("lenet", []float64{1.15, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Candidates > rows[1].Candidates {
		t.Fatalf("tolerance sweep not monotone: %+v", rows)
	}

	bias, err := AblationBiasInDRAM("lenet")
	if err != nil {
		t.Fatal(err)
	}
	if bias.BiasInDRAM > bias.PaperModel {
		t.Fatalf("bias in DRAM should not weaken the attack: %+v", bias)
	}

	or, err := AblationORAM("lenet")
	if err != nil {
		t.Fatal(err)
	}
	if !or.AttackDefeated || or.Overhead < 10 {
		t.Fatalf("ORAM report implausible: %+v", or)
	}

	pt, err := AblationZeroPruneTraffic([]float32{0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if pt[1].Sparsity <= pt[0].Sparsity {
		t.Fatal("higher threshold must increase sparsity")
	}
	if pt[1].TrafficFactor >= pt[0].TrafficFactor {
		t.Fatal("more sparsity must cut pruned traffic")
	}

	kb, err := AblationKernelBound("lenet", []int{7, 13})
	if err != nil {
		t.Fatal(err)
	}
	if kb[0].Candidates > kb[1].Candidates {
		t.Fatalf("kernel bound sweep not monotone: %+v", kb)
	}
}

func TestAblationPadDefense(t *testing.T) {
	rep, err := AblationPadDefense()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountsLeak {
		t.Fatal("padded write volumes still leak")
	}
	if rep.PaddedBlocks <= rep.DenseBlocks {
		t.Fatalf("padding should cost more than dense: %+v", rep)
	}
}

func TestAblationDataflow(t *testing.T) {
	rows, err := AblationDataflow("convnet")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.TruthFound {
			t.Fatalf("%s: truth lost", r.Dataflow)
		}
	}
	if rows[0].Candidates != rows[1].Candidates || rows[1].Candidates != rows[2].Candidates {
		t.Logf("note: candidate counts differ across dataflows: %+v", rows)
	}
}

func TestDataflowMatrixSingleVictim(t *testing.T) {
	rows, err := DataflowMatrix([]string{"lenet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Detected != r.Dataflow {
			t.Errorf("%s/%s detected as %s", r.Network, r.Dataflow, r.Detected)
		}
		if !r.TruthFound {
			t.Errorf("%s/%s: truth lost", r.Network, r.Dataflow)
		}
	}
	md := FormatDataflowMatrix(rows)
	if !strings.Contains(md, "row-stationary") || !strings.Contains(md, "Detection: 3/3") {
		t.Fatalf("matrix formatting broken:\n%s", md)
	}
}

func TestTable3Extended(t *testing.T) {
	rows, err := Table3([]string{"nin", "resnetmini"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.TruthFound {
			t.Errorf("%s: truth lost", r.Network)
		}
	}
}

func TestTable4AndFig5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy in -short mode")
	}
	rep, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TruthFound || rep.Combinations == 0 {
		t.Fatalf("table4: %+v", rep)
	}
	if !strings.Contains(rep.String(), "Table 4") {
		t.Fatal("table4 formatting broken")
	}

	f5, err := Fig5(core.RankConfig{Classes: 4, PerClass: 6, Epochs: 1, DepthDiv: 32, TopK: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if f5.Candidates == 0 || !strings.Contains(f5.String(), "Figure 5") {
		t.Fatalf("fig5: %+v", f5)
	}
}

func TestNoiseAndDataflowFormatting(t *testing.T) {
	tn, err := AblationTimingNoise("lenet", []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTimingNoise("lenet", tn)
	if !strings.Contains(out, "jitter") {
		t.Fatal("noise formatting broken")
	}
	for _, r := range tn {
		if !r.TruthFound {
			t.Errorf("jitter %.2f lost the truth", r.Jitter)
		}
	}
	df, err := AblationDataflow("lenet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatDataflow("lenet", df), "weight-stationary") {
		t.Fatal("dataflow formatting broken")
	}
	bs, _ := AblationBlockSize("lenet", []int{4})
	if !strings.Contains(FormatBlockSize("lenet", bs), "blockB") {
		t.Fatal("block formatting broken")
	}
	kb, _ := AblationKernelBound("lenet", []int{13})
	if !strings.Contains(FormatKernelBound("lenet", kb), "maxConvF") {
		t.Fatal("kernel formatting broken")
	}
}

// TestSolveBudgetArmsAtDetect pins that the sweeps' budget runs from the
// end of the detect stage, not from the start of the pipeline.
func TestSolveBudgetArmsAtDetect(t *testing.T) {
	ctx, arm, stop := solveBudget(time.Millisecond)
	defer stop()
	arm("analyze", 0)
	time.Sleep(5 * time.Millisecond)
	if ctx.Err() != nil {
		t.Fatal("budget expired before the detect stage finished")
	}
	arm("detect", 0)
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("budget never expired after the detect stage")
	}
}
