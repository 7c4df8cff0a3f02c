package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/nn"
	"cnnrev/internal/serve"
	"cnnrev/internal/structrev"
)

// serve-mixed sends a fixed seeded schedule at serveRate jobs per second:
// about a quarter of the capacity measured with -measure-capacity at the
// commit that introduced the benchmark; README.md says why not half.
// serveLimit is the fixed latency limit of one job, timed from its due time.
const (
	serveRate  = 30.0
	serveLimit = 250 * time.Millisecond
	// serveSegment is the part of the schedule sent between two host
	// calibrations.
	serveSegment = 2 * time.Second
)

// serveBlock is the request mix. The schedule is a run of blocks that each
// hold exactly these counts in a seeded order, so every seed sends the same
// mix: 15% resends of an earlier request, 35% simulations, and 50% uploads
// split evenly over the three setup traces, a third of them with drop
// corruption. Most simulations are of LeNet so that the median job falls
// in the middle of the cluster of LeNet simulations (about 2.5 ms) rather
// than at its upper edge, where latency_p50_s jumped between job kinds
// from seed to seed. Drop corruption is applied to LeNet and
// ConvNet uploads only: a dropped-record SqueezeNet upload keeps a worker busy for over 20 s and
// ends in 422 at the commit that introduced the benchmark (README.md).
var serveBlock = []struct {
	kind string
	n    int
}{
	{"resend", 18},
	{"simulate.lenet", 36}, {"simulate.convnet", 6},
	{"trace.lenet", 10}, {"trace.lenet.drop", 10},
	{"trace.convnet", 10}, {"trace.convnet.drop", 10},
	{"trace.squeezenet", 20},
}

const (
	dropRate         = 0.01
	resendMinAge     = time.Second
	serveHTTPTimeout = 30 * time.Second
)

var (
	uploadModels  = []string{"lenet", "convnet", "squeezenet"}
	serveDefenses = []string{"", "pad", "dummy", "rerand", "fuse"}
	// serveStages are the server's stage histograms serve-mixed reports.
	serveStages = []string{"decode", "capture", "defense", "corrupt", "analyze", "detect", "solve"}
)

// serveWant is the outcome a direct core/structrev call gave for a request.
type serveWant struct {
	status     int
	structures int
}

// serveReq is one scheduled request.
type serveReq struct {
	label  string // what the request is, for span tags
	path   string
	body   []byte
	resend int // index of the request this one repeats byte for byte, or -1
	want   serveWant
	// direct computes want; nil for a resend.
	direct func() serveWant
}

// serveResp is what the client saw for one request.
type serveResp struct {
	status int
	body   []byte
	hit    bool
	sent   time.Time
	done   time.Time
	err    error
}

// setupTrace is one trace captured during setup, with what an adversary
// uploading it declares.
type setupTrace struct {
	trace   *memtrace.Trace
	input   nn.Shape
	classes int
}

func captureSetupTrace(model string, seed int64) (setupTrace, error) {
	net, err := buildTable3Victim(model, seed)
	if err != nil {
		return setupTrace{}, err
	}
	c, err := core.Capture(net, accel.Config{}, seed)
	if err != nil {
		return setupTrace{}, err
	}
	return setupTrace{trace: c.Result.Trace, input: net.Input, classes: net.NumClasses()}, nil
}

// rebase returns a copy of tr whose cycle stamps start offset cycles
// later: the same capture taken by a probe that started at another time.
// It gives every upload distinct bytes, so only resends hit the cache.
func rebase(tr *memtrace.Trace, offset uint64) *memtrace.Trace {
	acc := make([]memtrace.Access, len(tr.Accesses))
	for i, a := range tr.Accesses {
		a.Cycle += offset
		acc[i] = a
	}
	return &memtrace.Trace{BlockBytes: tr.BlockBytes, Accesses: acc}
}

// directTrace is what POST /v1/attack/trace computes, called directly.
func directTrace(tr *memtrace.Trace, st setupTrace, modular bool, cc corrupt.Config) serveWant {
	elem := 4
	inputBytes := st.input.Len() * elem
	var a *structrev.Analysis
	var err error
	if cc.Enabled() {
		a, err = structrev.AnalyzeTolerant(corrupt.Apply(tr, cc), inputBytes, elem, structrev.TolerantOptions{})
	} else {
		a, err = structrev.Analyze(tr, inputBytes, elem)
	}
	if err != nil {
		return serveWant{status: http.StatusUnprocessableEntity}
	}
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = modular
	structures, err := structrev.Solve(a, st.input.W, st.input.C, st.classes, opt)
	if err != nil {
		return serveWant{status: http.StatusUnprocessableEntity}
	}
	return serveWant{status: http.StatusOK, structures: len(structures)}
}

// directSimulate is what POST /v1/attack/simulate computes, called
// directly.
func directSimulate(model string, seed int64, dc defense.Config) serveWant {
	net, err := buildTable3Victim(model, seed)
	if err != nil {
		return serveWant{status: http.StatusBadRequest}
	}
	rep, err := core.RunStructureAttackSpec(context.Background(), net, accel.Config{}, structrev.DefaultOptions(), seed,
		core.StructureAttackSpec{Defense: dc}, nil)
	if err != nil && rep == nil {
		return serveWant{status: http.StatusUnprocessableEntity}
	}
	return serveWant{status: http.StatusOK, structures: len(rep.Structures)}
}

// scheduleKinds lays out n request kinds as shuffled serveBlocks.
func scheduleKinds(rng *rand.Rand, n int) []string {
	var kinds []string
	for len(kinds) < n {
		var block []string
		for _, k := range serveBlock {
			for i := 0; i < k.n; i++ {
				block = append(block, k.kind)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	return kinds[:n]
}

// buildSchedule draws n requests from the mix. A resend repeats a request
// due at least resendMinAge earlier, so it usually finds a cached result;
// within the first resendMinAge it repeats any earlier request.
func buildSchedule(rng *rand.Rand, n int, traces map[string]setupTrace) ([]serveReq, error) {
	reqs := make([]serveReq, 0, n)
	minGap := int(resendMinAge.Seconds() * serveRate)
	for i, kind := range scheduleKinds(rng, n) {
		if kind == "resend" {
			var originals []int
			for j := 0; j < i; j++ {
				if reqs[j].resend < 0 && (j < i-minGap || i <= minGap) {
					originals = append(originals, j)
				}
			}
			if len(originals) == 0 {
				kind = "simulate.lenet"
			} else {
				j := originals[rng.Intn(len(originals))]
				reqs = append(reqs, serveReq{label: kind, path: reqs[j].path, body: reqs[j].body, resend: j})
				continue
			}
		}
		parts := strings.Split(kind, ".")
		model := parts[1]
		if parts[0] == "simulate" {
			seed := rng.Int63n(1 << 31)
			body := map[string]any{"model": model, "seed": seed}
			var dc defense.Config
			label := kind
			if d := serveDefenses[rng.Intn(len(serveDefenses))]; d != "" {
				dc = defense.Config{Kind: d, Seed: rng.Int63n(1 << 31)}
				body["defense"] = map[string]any{"kind": d, "seed": dc.Seed}
				label += "." + d
			}
			data, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, serveReq{
				label: label, path: "/v1/attack/simulate", body: data, resend: -1,
				direct: func() serveWant { return directSimulate(model, seed, dc) },
			})
			continue
		}
		st := traces[model]
		// Offsets grow with the index, so no two uploads share bytes.
		tr := rebase(st.trace, uint64(i+1)<<10|uint64(rng.Intn(1<<10)))
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return nil, err
		}
		modular := model == "squeezenet"
		path := fmt.Sprintf("/v1/attack/trace?inw=%d&ind=%d&classes=%d", st.input.W, st.input.C, st.classes)
		if modular {
			path += "&modular=1"
		}
		var cc corrupt.Config
		if len(parts) == 3 {
			cc = corrupt.Config{Seed: rng.Int63n(1 << 31), DropRate: dropRate}
			path += fmt.Sprintf("&drop_rate=%g&corrupt_seed=%d", dropRate, cc.Seed)
		}
		reqs = append(reqs, serveReq{
			label: kind, path: path, body: buf.Bytes(), resend: -1,
			direct: func() serveWant { return directTrace(tr, st, modular, cc) },
		})
	}
	return reqs, nil
}

// computeWants makes every request's direct call, nproc at a time.
func computeWants(reqs []serveReq) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if reqs[i].direct != nil {
					reqs[i].want = reqs[i].direct()
				}
			}
		}()
	}
	wg.Wait()
	for i := range reqs {
		if j := reqs[i].resend; j >= 0 {
			reqs[i].want = reqs[j].want
		}
	}
}

// serveWL is serve-mixed: an in-process revcnnd (in-memory job store,
// nproc workers) on loopback, driven open-loop by nproc client goroutines.
type serveWL struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	reqs   []serveReq
	traces map[string]setupTrace
}

func setupServe(seed int64, window time.Duration, _ *golden) (instance, error) {
	return newServeWL(seed, int(window.Seconds()*serveRate))
}

// prepareChecks makes every request's direct call, after setup: the
// checker's work, not the service's, so setup_s leaves it out.
func (w *serveWL) prepareChecks() {
	computeWants(w.reqs)
	// Return the direct calls' garbage to the kernel, so it does not count
	// in peak_rss_mb.
	debug.FreeOSMemory()
}

func newServeWL(seed int64, n int) (*serveWL, error) {
	rng := rand.New(rand.NewSource(seed))
	traces := map[string]setupTrace{}
	for _, m := range uploadModels {
		st, err := captureSetupTrace(m, rng.Int63())
		if err != nil {
			return nil, err
		}
		traces[m] = st
	}
	reqs, err := buildSchedule(rng, n, traces)
	if err != nil {
		return nil, err
	}
	nproc := runtime.GOMAXPROCS(0)
	srv := serve.New(serve.Config{Workers: nproc, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	w := &serveWL{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   serveHTTPTimeout,
			Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		},
		reqs: reqs, traces: traces,
	}
	go func() {
		defer close(w.served)
		w.hs.Serve(ln)
	}()
	return w, nil
}

func (w *serveWL) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Shutdown(ctx)
	w.client.CloseIdleConnections()
}

func (w *serveWL) do(r *serveReq) serveResp {
	resp := serveResp{sent: time.Now()}
	ctype := "application/octet-stream"
	if strings.HasPrefix(r.path, "/v1/attack/simulate") {
		ctype = "application/json"
	}
	hr, err := w.client.Post(w.base+r.path, ctype, bytes.NewReader(r.body))
	if err != nil {
		resp.err, resp.done = err, time.Now()
		return resp
	}
	resp.body, resp.err = io.ReadAll(hr.Body)
	hr.Body.Close()
	resp.done = time.Now()
	resp.status = hr.StatusCode
	resp.hit = hr.Header.Get("X-Revcnnd-Cache") == "hit"
	return resp
}

// checkServe compares a response with the direct call's outcome.
func checkServe(r *serveReq, resp *serveResp) error {
	if resp.err != nil {
		return fmt.Errorf("%s: %w", r.label, resp.err)
	}
	if resp.status != r.want.status {
		return fmt.Errorf("%s %s: status %d, want %d", r.label, r.path, resp.status, r.want.status)
	}
	if resp.status != http.StatusOK {
		return nil
	}
	var body struct {
		NumStructures int `json:"num_structures"`
	}
	if err := json.Unmarshal(resp.body, &body); err != nil {
		return fmt.Errorf("%s: %w", r.label, err)
	}
	if body.NumStructures != r.want.structures {
		return fmt.Errorf("%s %s: %d structures, want %d", r.label, r.path, body.NumStructures, r.want.structures)
	}
	return nil
}

func originalOf(reqs []serveReq, i int) int {
	if reqs[i].resend >= 0 {
		return reqs[i].resend
	}
	return i
}

func containsBody(bodies [][]byte, b []byte) bool {
	for _, x := range bodies {
		if bytes.Equal(x, b) {
			return true
		}
	}
	return false
}

// uncached removes the one difference between a cache hit's body and the
// response that filled the cache.
func uncached(body []byte) []byte { return bytes.Replace(body, []byte(`"cached":true,`), nil, 1) }

// scrape reads the server's counters and histogram sums from /metrics.
func (w *serveWL) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			m[k] = f
		}
	}
	return m, sc.Err()
}

func (w *serveWL) measure(window time.Duration, tr *tracer, host *hostMeter) (*outcome, error) {
	before, err := w.scrape()
	if err != nil {
		return nil, err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	resps := make([]serveResp, len(w.reqs))
	due := make([]time.Time, len(w.reqs))
	// The schedule is sent in segments of serveSegment. After each, once
	// its last response is in, the host is calibrated (calibrate.go), so
	// the calibrations are spread through the window and never share the
	// host with a job.
	perSeg := int(serveSegment.Seconds() * serveRate)
	host.measure()
	var busy time.Duration
	for lo := 0; lo < len(w.reqs); lo += perSeg {
		hi := min(lo+perSeg, len(w.reqs))
		start := time.Now().Add(10 * time.Millisecond)
		for i := lo; i < hi; i++ {
			due[i] = start.Add(time.Duration(float64(i-lo) / serveRate * float64(time.Second)))
		}
		w.sendSegment(lo, hi, due, resps, tr)
		var last time.Time
		for _, r := range resps[lo:hi] {
			if r.done.After(last) {
				last = r.done
			}
		}
		busy += last.Sub(start)
		host.measure()
	}
	runtime.ReadMemStats(&msAfter)
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}

	o := &outcome{limit: serveLimit.Seconds(), allocBytes: msAfter.TotalAlloc - msBefore.TotalAlloc}
	var lag []float64
	var serviceS float64
	executed := 0
	// Per request kind, latency sums and counts of untraced [0] and
	// traced [1] jobs.
	latSum := map[string]*[2]float64{}
	latN := map[string]*[2]int{}
	// computed holds, per original request, the bodies of its executed
	// (non-hit) responses: a resend sent while the original was still in
	// flight executes too, and either may be the one the cache kept.
	computed := map[int][][]byte{}
	for i := range w.reqs {
		if orig := originalOf(w.reqs, i); !resps[i].hit && resps[i].status == http.StatusOK {
			computed[orig] = append(computed[orig], uncached(resps[i].body))
		}
	}
	for i := range w.reqs {
		r, resp := &w.reqs[i], &resps[i]
		err := checkServe(r, resp)
		if err == nil && resp.hit && !containsBody(computed[originalOf(w.reqs, i)], uncached(resp.body)) {
			err = fmt.Errorf("%s %s: cache hit body differs from every computed response", r.label, r.path)
		}
		lat := resp.done.Sub(due[i])
		o.check(err)
		o.sample(lat.Seconds(), err == nil)
		lag = append(lag, resp.sent.Sub(due[i]).Seconds())
		if !resp.hit {
			serviceS += resp.done.Sub(resp.sent).Seconds()
			executed++
		}
		k := r.label
		if latSum[k] == nil {
			latSum[k], latN[k] = new([2]float64), new([2]int)
		}
		latSum[k][i%2] += lat.Seconds()
		latN[k][i%2]++
	}
	// Latencies are read at the reference host speed. The send rate is
	// fixed by the schedule, not by the host, so busy stays in raw seconds
	// and ops_per_s reads the rate the service kept up with.
	o.scale(host.speed())
	o.busy = busy.Seconds()
	o.peakRSS = peakRSSMiB()
	if tr == nil {
		return o, nil
	}

	delta := func(k string) float64 { return after[k] - before[k] }
	m := map[string]float64{}
	var stageS float64
	for _, s := range serveStages {
		sum := delta(fmt.Sprintf("revcnnd_stage_seconds_sum{stage=%q}", s))
		if c := delta(fmt.Sprintf("revcnnd_stage_seconds_count{stage=%q}", s)); c > 0 {
			m["serve.stage_s."+s] = sum / c
		}
		stageS += sum
	}
	if c := delta("revcnnd_queue_wait_seconds_count"); c > 0 {
		m["jobstore.queue_wait_s"] = delta("revcnnd_queue_wait_seconds_sum") / c
	}
	hits, misses := delta("revcnnd_cache_hits_total"), delta("revcnnd_cache_misses_total")
	if hits+misses > 0 {
		m["serve.cache_hit_frac"] = hits / (hits + misses)
	}
	m["serve.rejected"] = delta("revcnnd_jobs_rejected_total")
	if executed > 0 {
		m["serve.non_stage_s"] = (serviceS - stageS) / float64(executed)
	}
	m["loadgen.lag_p95_s"] = percentile(lag, 0.95)
	m["loadgen.sent"] = float64(len(w.reqs))
	m["trace.overhead_frac"] = overheadFrac(latSum, latN)
	if err := w.probe(tr, m); err != nil {
		o.check(fmt.Errorf("probe: %w", err))
	}
	o.layers = m
	return o, nil
}

// sendSegment sends requests lo to hi-1 at their due times from nproc
// client goroutines and waits for every response. In a traced run every
// other job is traced.
func (w *serveWL) sendSegment(lo, hi int, due []time.Time, resps []serveResp, tr *tracer) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				time.Sleep(time.Until(due[i]))
				if tr != nil && i%2 == 1 {
					root := tr.begin("op", w.reqs[i].label, i, -1)
					id := tr.begin("serve.http", w.reqs[i].label, i, root)
					resps[i] = w.do(&w.reqs[i])
					tr.end(id)
					tr.end(root)
				} else {
					resps[i] = w.do(&w.reqs[i])
				}
			}
		}()
	}
	wg.Wait()
}

// overheadFrac compares traced with untraced jobs kind by kind: the whole
// schedule's latency at each kind's traced mean over that at its untraced
// mean, minus 1. Kinds missing from either half are left out.
func overheadFrac(sum map[string]*[2]float64, n map[string]*[2]int) float64 {
	var traced, untraced float64
	for k, s := range sum {
		c := n[k]
		if c[0] == 0 || c[1] == 0 {
			continue
		}
		jobs := float64(c[0] + c[1])
		untraced += jobs * s[0] / float64(c[0])
		traced += jobs * s[1] / float64(c[1])
	}
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// probeReps is how many times the serve probe repeats each direct call.
const probeReps = 5

// probe times direct calls on the setup SqueezeNet trace, the largest:
// each defense's Apply, the mix's drop corruption (a span in the dump, with
// no metric of its own), and memtrace decoding of its serialized form.
func (w *serveWL) probe(tr *tracer, m map[string]float64) error {
	st := w.traces["squeezenet"].trace
	root := tr.begin("probe", "setup_trace", -1, -1)
	defer tr.end(root)
	for _, kind := range serveDefenses[1:] {
		cfg := defense.Config{Kind: kind, Seed: 1}
		id := tr.begin("defense.Apply", kind, -1, root)
		for i := 0; i < probeReps; i++ {
			if _, _, err := defense.Apply(st, cfg); err != nil {
				return err
			}
		}
		tr.endBatch(id, probeReps)
		m["defense.apply_s."+kind] = tr.meanCall("defense.Apply", kind)
	}
	drop := corrupt.Config{Seed: 1, DropRate: dropRate}
	id := tr.begin("corrupt.Apply", "drop", -1, root)
	for i := 0; i < probeReps; i++ {
		corrupt.Apply(st, drop)
	}
	tr.endBatch(id, probeReps)
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		return err
	}
	id = tr.begin("memtrace.DecodeTrace", "squeezenet", -1, root)
	for i := 0; i < probeReps; i++ {
		if _, err := memtrace.DecodeTrace(buf.Bytes()); err != nil {
			return err
		}
	}
	tr.endBatch(id, probeReps)
	m["memtrace.decode_mb_per_s"] = float64(buf.Len()) / (1 << 20) / tr.meanCall("memtrace.DecodeTrace", "squeezenet")
	return nil
}

// measureServeCapacity sends the mix closed-loop from nproc clients for
// the window and prints completed jobs per second: the capacity the
// serve-mixed rate is fixed against.
func measureServeCapacity(seed int64, window time.Duration) error {
	// Capacity was about four times serveRate; eight times leaves room.
	n := int(window.Seconds() * serveRate * 8)
	w, err := newServeWL(seed, n)
	if err != nil {
		return err
	}
	defer w.close()
	var next, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				i := int(next.Add(1)) - 1
				if i >= len(w.reqs) {
					return
				}
				if resp := w.do(&w.reqs[i]); resp.err == nil && resp.status < 500 {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("capacity %.2f jobs/s (%d jobs in %s, %d clients)\n",
		float64(done.Load())/time.Since(start).Seconds(), done.Load(), time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))
	return nil
}
