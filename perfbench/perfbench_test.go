package main

import (
	"net/http"
	"testing"
	"time"
)

// tinyWindow makes each closed-loop workload run a single round (two in a
// traced run); serve-mixed gets enough due times for resends to appear.
func tinyWindow(workload string) time.Duration {
	if workload == "serve-mixed" {
		return 2 * time.Second
	}
	return time.Millisecond
}

func testConfig(t *testing.T, workload string, traced bool, g *golden) runConfig {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if g == nil {
		if g, err = loadGolden(); err != nil {
			t.Fatal(err)
		}
	}
	return runConfig{workload: workload, seed: 7, window: tinyWindow(workload), traced: traced, spec: spec, gold: g}
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w.name, false, nil)
			res, _, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range cfg.spec.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s missing or in the wrong unit: %+v", m.Name, v)
				}
			}
			if len(res.Metrics) != len(cfg.spec.EndToEnd) {
				t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(cfg.spec.EndToEnd))
			}
		})
	}
}

// TestTracedRunsCoverEveryLayerMetric checks that every per-layer metric of
// BENCHMARK.json is printed by every traced run and measured by at least
// one workload, and that the exact counts equal the golden values.
func TestTracedRunsCoverEveryLayerMetric(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	var spec *benchSpec
	for _, w := range workloads {
		cfg := testConfig(t, w.name, true, g)
		spec = cfg.spec
		res, dump, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", w.name, len(res.Metrics), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if v, ok := res.Metrics[m.Name]; ok && v.Value != 0 {
				measured[m.Name] = true
			}
		}
		if len(dump.Spans) == 0 || len(dump.Layers) == 0 {
			t.Errorf("%s: empty span dump", w.name)
		}
		if _, err := writeSpanDump(t.TempDir(), dump); err != nil {
			t.Error(err)
		}
		exact := map[string]float64{}
		switch w.name {
		case "table3-structure":
			for v, o := range g.Structure {
				exact["accel.sim_cycles."+v] = float64(o.SimCycles)
				exact["accel.trace_records."+v] = float64(o.Records)
				exact["structrev.candidates."+v] = float64(o.Candidates)
			}
		case "rank-candidates":
			for s, e := range g.Rank.TotalEpochs {
				exact["core.epochs."+s] = float64(e)
			}
		case "weights-oracle":
			for c, wg := range g.Weights {
				exact["weightrev.queries."+c] = float64(wg.Queries)
			}
		}
		for name, want := range exact {
			if got := res.Metrics[name].Value; got != want {
				t.Errorf("%s: %s = %g, want %g", w.name, name, got, want)
			}
		}
	}
	for _, m := range spec.PerLayer {
		// A serve run this short may see no rejections: 0 is its measured
		// value, not a missing one.
		if !measured[m.Name] && m.Name != "serve.rejected" {
			t.Errorf("no workload measures %s", m.Name)
		}
	}
}

// TestWrongGoldenFailsOperations checks that a deliberately wrong expected
// value is reported as a failed operation, not ignored.
func TestWrongGoldenFailsOperations(t *testing.T) {
	for _, tc := range []struct {
		workload string
		spoil    func(g *golden)
	}{
		{"table3-structure", func(g *golden) {
			o := g.Structure["alexnet"]
			o.Candidates++
			g.Structure["alexnet"] = o
		}},
		{"rank-candidates", func(g *golden) { g.Rank.TotalEpochs["halving"]++ }},
		{"weights-oracle", func(g *golden) { g.Weights["lenet_trace"] = weightsGold{Queries: 1} }},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			g, err := loadGolden()
			if err != nil {
				t.Fatal(err)
			}
			tc.spoil(g)
			res, _, err := run(testConfig(t, tc.workload, false, g))
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("wrong golden value went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

func TestServeCheckRejectsWrongAnswers(t *testing.T) {
	r := &serveReq{label: "trace.lenet", want: serveWant{status: http.StatusOK, structures: 27}}
	for _, tc := range []struct {
		name string
		resp serveResp
	}{
		{"count", serveResp{status: http.StatusOK, body: []byte(`{"num_structures":26}`)}},
		{"status", serveResp{status: http.StatusUnprocessableEntity}},
		{"rejected", serveResp{status: http.StatusTooManyRequests}},
	} {
		if err := checkServe(r, &tc.resp); err == nil {
			t.Errorf("%s: wrong response accepted", tc.name)
		}
	}
	ok := serveResp{status: http.StatusOK, body: []byte(`{"num_structures":27}`)}
	if err := checkServe(r, &ok); err != nil {
		t.Errorf("right response rejected: %v", err)
	}
	first := `{"job_id":"j1","mode":"trace","num_structures":27}`
	hit := `{"job_id":"j1","mode":"trace","cached":true,"num_structures":27}`
	if string(uncached([]byte(hit))) != first {
		t.Errorf("uncached(%s) = %s", hit, uncached([]byte(hit)))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100, N: 1},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40, N: 1},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60, N: 1}, // overlaps its sibling
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 30, N: 1},
	}
	self := selfTimes(spans)
	for i, want := range []int64{50, 20, 30, 10} {
		if self[i] != want {
			t.Errorf("span %d: self %d, want %d", i, self[i], want)
		}
	}
	if got := unaccountedFrac(spans); got != 0.5 {
		t.Errorf("unaccounted %g, want 0.5", got)
	}
	rows := layerTable(spans)
	if len(rows) != 4 || rows[0].Name != "op" || rows[0].SelfS != 50e-9 {
		t.Errorf("largest self-time row %+v", rows[0])
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Errorf("p50 = %g, want 2.5", got)
	}
	if got := percentile(xs, 1); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
}

func TestHostSpeed(t *testing.T) {
	// On a host at half the reference speed the calibration takes twice as
	// long, and a 2 s operation reads as 1 s.
	m := hostMeter{sum: 3 * 2 * calRefSeconds, n: 3}
	if got := 2 * m.speed(); got != 1 {
		t.Errorf("half speed: %g s, want 1", got)
	}
	m = hostMeter{}
	m.measure()
	if m.n == 0 || !(m.speed() > 0) {
		t.Errorf("measure made %d calibrations, speed %g", m.n, m.speed())
	}
}
