package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
)

// RankPerfRow compares the flat full-budget ranking schedule against the
// successive-halving tournament on one victim's candidate report.
type RankPerfRow struct {
	Network    string  `json:"network"`
	Tol        float64 `json:"tol"`        // solver timing tolerance that produced the report
	Candidates int     `json:"candidates"` // candidates actually trained
	Skipped    int     `json:"skipped"`    // candidates beyond a MaxCandidates cap

	FlatEpochs    int     `json:"flat_epochs"`
	HalvingEpochs int     `json:"halving_epochs"`
	Rungs         int     `json:"rungs"`
	Reduction     float64 `json:"reduction"` // FlatEpochs / HalvingEpochs

	FlatNs    int64 `json:"flat_ns"`
	HalvingNs int64 `json:"halving_ns"`

	FlatTop1    int     `json:"flat_top1"`
	HalvingTop1 int     `json:"halving_top1"`
	SameTop1    bool    `json:"same_top1"` // halving's winner is in flat's bit-equal tied-top set
	Top1Acc     float64 `json:"top1_acc"`
}

// rankPerfCase is one victim of the rank sweep.
type rankPerfCase struct {
	model string
	tol   float64 // 0 = solver default
	rc    core.RankConfig
}

// rankPerfCases maps the scale flag onto the sweep: the four Table 3
// victims at the default tolerance, plus a wide LeNet report (timing
// tolerance 4.0, ~93 candidates) where the tournament's epoch savings are
// most visible. Epoch budgets grow with scale; the schedule shape does not.
func rankPerfCases(scale string) []rankPerfCase {
	epochs, wideEpochs := 8, 12
	big := core.RankConfig{Classes: 4, PerClass: 6, Epochs: 4, DepthDiv: 48, Seed: 9, MaxCandidates: 8}
	switch scale {
	case "full":
		epochs, wideEpochs = 12, 16
		big.Epochs = 6
		big.MaxCandidates = 0
	case "medium":
		big.MaxCandidates = 16
	}
	small := core.RankConfig{Classes: 4, PerClass: 12, Epochs: epochs, DepthDiv: 1, Seed: 9}
	wide := core.RankConfig{Classes: 4, PerClass: 24, Epochs: wideEpochs, DepthDiv: 1, Seed: 9}
	return []rankPerfCase{
		{model: "lenet", rc: small},
		{model: "convnet", rc: small},
		{model: "alexnet", rc: big},
		{model: "squeezenet", rc: big},
		{model: "lenet", tol: 4.0, rc: wide},
	}
}

// RankPerf runs the flat-vs-halving comparison over the sweep's victims.
// Both schedules rank the same recovered report with the same seed; the
// tournament uses Eta=2 from a one-epoch first rung.
func RankPerf(scale string) ([]RankPerfRow, error) {
	var rows []RankPerfRow
	for _, c := range rankPerfCases(scale) {
		net, opt, err := paperVictim(c.model)
		if err != nil {
			return nil, err
		}
		if c.tol > 0 {
			opt.TimingSpreadMax = c.tol
		}
		rep, err := core.RunStructureAttack(net, accel.Config{}, opt, 2)
		if err != nil {
			return nil, err
		}

		t0 := time.Now()
		flat := core.RankCandidatesResult(context.Background(), rep, net.Input, c.rc)
		flatNs := time.Since(t0).Nanoseconds()

		hrc := c.rc
		hrc.Halving, hrc.Eta, hrc.MinEpochs = true, 2, 1
		t0 = time.Now()
		halv := core.RankCandidatesResult(context.Background(), rep, net.Input, hrc)
		halvNs := time.Since(t0).Nanoseconds()

		row := RankPerfRow{
			Network: c.model, Tol: opt.TimingSpreadMax,
			Candidates: len(flat.Scores), Skipped: flat.Skipped,
			FlatEpochs: flat.TotalEpochs, HalvingEpochs: halv.TotalEpochs,
			Rungs: len(halv.Rungs), FlatNs: flatNs, HalvingNs: halvNs,
			FlatTop1: flat.Scores[0].Index, HalvingTop1: halv.Scores[0].Index,
			Top1Acc: halv.Scores[0].Accuracy,
		}
		if halv.TotalEpochs > 0 {
			row.Reduction = float64(flat.TotalEpochs) / float64(halv.TotalEpochs)
		}
		// Selection equality modulo ties: any candidate bit-equal to flat's
		// best full-budget accuracy is the same selection.
		best := math.Float64bits(flat.Scores[0].Accuracy)
		for _, sc := range flat.Scores {
			if sc.Index == row.HalvingTop1 {
				row.SameTop1 = math.Float64bits(sc.Accuracy) == best && sc.Epochs == flat.Scores[0].Epochs
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// machine describes where a timing was taken: timings are only
// comparable between runs on the same cores and CPU.
type machine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

// thisMachine describes the current machine. The CPU model comes from
// /proc/cpuinfo and reads "unknown" where that file is missing.
func thisMachine() machine {
	env := machine{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return env
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			env.CPU = strings.TrimSpace(v)
			break
		}
	}
	return env
}

// FormatRankPerf renders the sweep as the results/perf_rank.md document.
func FormatRankPerf(scale string, rows []RankPerfRow) string {
	var b strings.Builder
	b.WriteString("# Successive-halving candidate ranking\n\n")
	b.WriteString("Flat schedule trains every candidate for the full epoch budget; the\n")
	b.WriteString("tournament (Eta=2, MinEpochs=1) halves the field at each rung and only\n")
	b.WriteString("survivors resume toward the full budget. \"same top-1\" means the\n")
	b.WriteString("tournament selected a candidate whose flat accuracy is bit-equal to the\n")
	b.WriteString("flat winner's (identical selection modulo exact-tie order).\n\n")
	fmt.Fprintf(&b, "Scale: %s. Generated by `go run ./cmd/experiments -run rank -scale %s`.\n\n", scale, scale)
	env := thisMachine()
	fmt.Fprintf(&b, "Measured on %d cores (GOMAXPROCS %d), %s, %s.\n\n", env.Cores, env.GOMAXPROCS, env.CPU, env.GoVersion)
	b.WriteString("| network | tol | candidates | flat epochs | tournament epochs | reduction | rungs | same top-1 | top-1 acc |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		cand := fmt.Sprintf("%d", r.Candidates)
		if r.Skipped > 0 {
			cand = fmt.Sprintf("%d (+%d skipped)", r.Candidates, r.Skipped)
		}
		fmt.Fprintf(&b, "| %s | %.2f | %s | %d | %d | %.2fx | %d | %v | %.3f |\n",
			r.Network, r.Tol, cand, r.FlatEpochs, r.HalvingEpochs, r.Reduction, r.Rungs, r.SameTop1, r.Top1Acc)
	}
	b.WriteString("\nWall-clock per schedule (single run, includes synthetic dataset setup):\n\n")
	b.WriteString("| network | tol | flat | tournament |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.2f | %s | %s |\n", r.Network, r.Tol,
			time.Duration(r.FlatNs).Round(time.Millisecond), time.Duration(r.HalvingNs).Round(time.Millisecond))
	}
	return b.String()
}

// WriteBenchRankJSON writes the sweep as the machine-readable perf artifact
// CI diffs against (results/bench_rank.json).
func WriteBenchRankJSON(path, scale string, rows []RankPerfRow) error {
	doc := struct {
		Scale string        `json:"scale"`
		Env   machine       `json:"env"`
		Rows  []RankPerfRow `json:"rows"`
	}{Scale: scale, Env: thisMachine(), Rows: rows}
	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
