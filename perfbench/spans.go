package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call perfbench made into a module's public function.
// Op groups the spans of one operation; Parent is the enclosing span's ID
// (-1 for a root: an operation or a probe).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is how many calls the span covers: 1, or the batch size of a
	// probe that times many tiny calls as one span.
	N int `json:"n"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so untraced code paths pay one
// nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when untraced).
func (t *tracer) begin(name, tag string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Tag: tag, Start: now, End: now, N: 1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) { t.endBatch(id, 1) }

// endBatch closes a span that covered n calls.
func (t *tracer) endBatch(id, n int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(name, tag string, op, parent int, fn func()) {
	id := t.begin(name, tag, op, parent)
	fn()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// find returns the spans with the given name and tag.
func (t *tracer) find(name, tag string) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Name == name && s.Tag == tag {
			out = append(out, s)
		}
	}
	return out
}

// meanCall is the mean duration in seconds of one call covered by the
// spans with the given name and tag (0 when there are none).
func (t *tracer) meanCall(name, tag string) float64 {
	var sum float64
	n := 0
	for _, s := range t.find(name, tag) {
		sum += s.seconds()
		n += s.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// totalSeconds sums the durations of the spans with the given name and tag.
func (t *tracer) totalSeconds(name, tag string) float64 {
	var sum float64
	for _, s := range t.find(name, tag) {
		sum += s.seconds()
	}
	return sum
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children of concurrent spans may overlap, so
// their intervals are merged first).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi int64 = 0, s.Start
		for _, c := range iv {
			lo := max(c[0], hi)
			end := min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// unaccountedFrac is the share of the root spans' (operations' and
// probes') wall time that no child span covers.
func unaccountedFrac(spans []span) float64 {
	self := selfTimes(spans)
	var total, uncovered int64
	for i, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

// layerRow aggregates the spans of one (name, tag) pair.
type layerRow struct {
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTable aggregates spans by (name, tag), largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := map[[2]string]int{}
	var rows []layerRow
	for i, s := range spans {
		k := [2]string{s.Name, s.Tag}
		j, ok := idx[k]
		if !ok {
			j = len(rows)
			idx[k] = j
			rows = append(rows, layerRow{Name: s.Name, Tag: s.Tag})
		}
		rows[j].Spans++
		rows[j].Calls += s.N
		rows[j].TotalS += s.seconds()
		rows[j].SelfS += float64(self[i]) / 1e9
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].SelfS > rows[b].SelfS })
	return rows
}

// writeLayerTable prints the per-layer table for a human reader.
func writeLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-40s %-14s %7s %8s %12s %12s\n", "span", "tag", "spans", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %-14s %7d %8d %12.6f %12.6f\n", r.Name, r.Tag, r.Spans, r.Calls, r.TotalS, r.SelfS)
	}
}

// spanDump is the file a traced run writes when it ends.
type spanDump struct {
	Env     envBlock           `json:"env"`
	Metrics map[string]float64 `json:"metrics"`
	Layers  []layerRow         `json:"layers"`
	Spans   []span             `json:"spans"`
}

// writeSpanDump writes the dump as JSON into dir and returns its path.
func writeSpanDump(dir string, d *spanDump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", d.Env.Workload, d.Env.Seed))
	data, err := json.Marshal(d)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
