// Command perfbench is the repository benchmark. One invocation prepares
// one named attack workload, runs its operations for a fixed time from a
// single process, checks every output against the values recorded in
// golden.json, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics from spans around its own calls into each
// module) as the last line of standard output. README.md explains the
// workloads and metrics; run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload table3-structure --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// perfbench runs from the repository root: it reads the benchmark
// definition there and writes the traced run's span dump under spanDir.
const (
	specPath = "BENCHMARK.json"
	spanDir  = ".bench_out"
)

// setupReps is how many times a run prepares its workload; setup_s is the
// median, so one slow preparation does not move the metric.
const setupReps = 3

// instance is one prepared workload.
type instance interface {
	// measure runs operations for the window, calibrating host between
	// them (calibrate.go); tr is non-nil in a traced run.
	measure(window time.Duration, tr *tracer, host *hostMeter) (*outcome, error)
	// close releases what setup started.
	close()
}

// checker is a workload whose expected outputs are computed once after
// setup: work of the benchmark's checker, not of the system under test, so
// setup_s does not include it.
type checker interface {
	prepareChecks()
}

// workloadDef names a workload and how to prepare it from the run seed.
type workloadDef struct {
	name  string
	setup func(seed int64, window time.Duration, g *golden) (instance, error)
}

var workloads = []workloadDef{
	{"table3-structure", setupStructure},
	{"rank-candidates", setupRank},
	{"weights-oracle", setupWeights},
	{"serve-mixed", setupServe},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is what one measurement window produced.
type outcome struct {
	// ok records, per attempted operation, whether every check passed.
	ok []bool
	// lat holds the latency samples in seconds at the reference host speed:
	// one per job, timed from its due time, in an open loop; one per round
	// (one operation of each kind) in a closed loop. latOK marks samples
	// whose operations all passed.
	lat   []float64
	latOK []bool
	// busy is the time the operations occupied: the sum of operation times
	// at the reference speed in a closed loop, schedule start to last
	// response in an open one.
	busy float64
	// speed is the host speed the latencies were scaled by (calibrate.go).
	speed float64
	// limit is the workload's fixed latency limit in seconds.
	limit float64
	// allocBytes is the heap allocation volume of the operations.
	allocBytes uint64
	// peakRSS is the resident-set high-water mark in MiB: over the whole
	// window in an open loop, the median over rounds of each round's in a
	// closed loop, where a small heap's peak swings with GC timing.
	peakRSS float64
	// layers holds the per-layer metrics the workload owns (traced runs).
	layers map[string]float64
	// failures describes the first failed checks, for standard error.
	failures []string
}

// check records one attempted operation and its first failed check.
func (o *outcome) check(err error) {
	o.ok = append(o.ok, err == nil)
	if err != nil && len(o.failures) < 20 {
		o.failures = append(o.failures, err.Error())
	}
}

// sample records one latency sample in seconds.
func (o *outcome) sample(lat float64, ok bool) {
	o.lat = append(o.lat, lat)
	o.latOK = append(o.latOK, ok)
}

// scale reads the latency samples, measured at host speed speed, at the
// reference speed.
func (o *outcome) scale(speed float64) {
	for i := range o.lat {
		o.lat[i] *= speed
	}
	o.speed = speed
}

func (o *outcome) failed() int {
	n := 0
	for _, ok := range o.ok {
		if !ok {
			n++
		}
	}
	return n
}

// envBlock is the environment every result carries.
type envBlock struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	// HostSpeed is the host's speed relative to the reference over setup
	// and window: a raw time is a reported one divided by it.
	HostSpeed float64 `json:"host_speed"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// hostSpeed is the host speed (calibrate.go) the run's times were
	// read at, for the environment block.
	hostSpeed float64
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so a peak covers what setup left resident and what
// came after the reset.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kib / 1024
			}
		}
	}
	return 0
}

// endToEnd derives the end-to-end metrics from an untraced window.
func endToEnd(o *outcome, setupS float64) map[string]float64 {
	good := len(o.ok) - o.failed()
	inLimit := 0
	for i, ok := range o.latOK {
		if ok && o.lat[i] <= o.limit {
			inLimit++
		}
	}
	return map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     float64(good) / o.busy,
		"ok_frac":       float64(good) / float64(len(o.ok)),
		"peak_rss_mb":   o.peakRSS,
		"latency_p50_s": percentile(o.lat, 0.50),
		"latency_p95_s": percentile(o.lat, 0.95),
		"slo_met_frac":  float64(inLimit) / float64(len(o.lat)),
	}
}

// prepare runs the workload's setup setupReps times, calibrating host
// before each, and keeps the last instance. It returns the median setup
// time in raw seconds.
func prepare(w workloadDef, seed int64, window time.Duration, g *golden, host *hostMeter) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		host.measure()
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, window, g)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	spec     *benchSpec
	gold     *golden
}

// run prepares and measures one workload and builds its result.
func run(cfg runConfig) (*result, *spanDump, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// One meter serves the whole run: setup_s is read at the host speed
	// measured over setup and window together, from calibrations before
	// each preparation and through the window.
	var host hostMeter
	inst, setupRaw, err := prepare(w, cfg.seed, cfg.window, cfg.gold, &host)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	if c, ok := inst.(checker); ok {
		c.prepareChecks()
	}
	resetPeakRSS()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	o, err := inst.measure(cfg.window, tr, &host)
	if err != nil {
		return nil, nil, err
	}
	if len(o.ok) == 0 || len(o.lat) == 0 {
		return nil, nil, errors.New("no operation completed")
	}
	res := &result{Attempted: len(o.ok), Failed: o.failed(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	res.hostSpeed = host.speed()

	want := cfg.spec.EndToEnd
	values := endToEnd(o, setupRaw*res.hostSpeed)
	var dump *spanDump
	if cfg.traced {
		want = cfg.spec.PerLayer
		values = map[string]float64{}
		// A layer the workload never calls spent no time and did no work
		// in it: its metrics read 0.
		for _, m := range want {
			values[m.Name] = 0
		}
		for k, v := range o.layers {
			values[k] = v
		}
		spans := tr.snapshot()
		values["go.alloc_mb_per_op"] = float64(o.allocBytes) / (1 << 20) / float64(len(o.ok))
		values["trace.unaccounted_frac"] = unaccountedFrac(spans)
		dump = &spanDump{Metrics: values, Layers: layerTable(spans), Spans: spans}
	}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("workload %s does not produce metric %s", cfg.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return res, dump, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: table3-structure, rank-candidates, weights-oracle or serve-mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "length of the measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	recordGolden := flag.Bool("record-golden", false, "print the current program's reference values in golden.json form and exit")
	measureCapacity := flag.Bool("measure-capacity", false, "serve-mixed only: send the request mix closed-loop from nproc clients and print the completed jobs per second")
	flag.Parse()

	if *recordGolden {
		g, err := recordGoldenValues()
		if err != nil {
			fatal(err)
		}
		out, _ := json.MarshalIndent(g, "", "  ")
		fmt.Println(string(out))
		return
	}
	if *measureCapacity {
		if err := measureServeCapacity(*seed, time.Duration(*seconds*float64(time.Second))); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	gold, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	env := envBlock{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(),
	}
	res, dump, err := run(runConfig{
		workload: *workload, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, spec: spec, gold: gold,
	})
	if err != nil {
		fatal(err)
	}
	env.HostSpeed = res.hostSpeed
	if dump != nil {
		dump.Env = env
		writeLayerTable(os.Stderr, dump.Layers)
		path, err := writeSpanDump(spanDir, dump)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "span dump:", path)
	}
	envLine, _ := json.Marshal(map[string]envBlock{"env": env})
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
