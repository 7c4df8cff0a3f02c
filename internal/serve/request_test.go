package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"cnnrev/internal/core"
	"cnnrev/internal/memtrace"
)

// requestLeaf is one scalar field of Request, addressed by its JSON path.
type requestLeaf struct {
	path string
	get  func(*Request) reflect.Value // the field, in a request whose rank is non-nil
}

// requestLeaves walks Request's JSON-visible fields, descending into the
// nested defense, corrupt and rank objects.
func requestLeaves() []requestLeaf {
	var out []requestLeaf
	var walk func(prefix string, typ reflect.Type, get func(*Request) reflect.Value)
	walk = func(prefix string, typ reflect.Type, get func(*Request) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "-" {
				continue
			}
			i, ft := i, typ.Field(i).Type
			field := func(r *Request) reflect.Value { return get(r).Field(i) }
			switch {
			case ft.Kind() == reflect.Struct:
				walk(prefix+name+".", ft, field)
			case ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct:
				walk(prefix+name+".", ft.Elem(), func(r *Request) reflect.Value { return field(r).Elem() })
			default:
				out = append(out, requestLeaf{prefix + name, field})
			}
		}
	}
	walk("", reflect.TypeOf(Request{}), func(r *Request) reflect.Value { return reflect.ValueOf(r).Elem() })
	return out
}

// perturb sets a leaf to a non-zero value.
func perturb(v reflect.Value) {
	if v.Kind() == reflect.Pointer {
		v.Set(reflect.New(v.Type().Elem()))
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("x")
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// queryValue renders a leaf's perturbed value as a query-string value.
func queryValue(v reflect.Value) string {
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() == reflect.Bool {
		return "1"
	}
	b, _ := json.Marshal(v.Interface())
	return strings.Trim(string(b), `"`)
}

// TestQueryFieldsMatchJSON: every query-table entry and its JSON path decode
// to the same Request, and the table covers every client-settable field.
func TestQueryFieldsMatchJSON(t *testing.T) {
	leaves := map[string]requestLeaf{}
	for _, l := range requestLeaves() {
		leaves[l.path] = l
	}
	covered := map[string]bool{"mode": true, "trace_sha256": true} // server-derived
	names := map[string]bool{}
	for _, f := range queryFields {
		if names[f.name] {
			t.Fatalf("query parameter %s listed twice", f.name)
		}
		names[f.name] = true
		covered[f.path] = true

		query := url.Values{}
		var body string
		if f.path == "rank" {
			query.Set("rank", "1")
			body = `{"rank":{}}`
		} else {
			l, ok := leaves[f.path]
			if !ok {
				t.Fatalf("%s maps to %s, which is not a Request field", f.name, f.path)
			}
			want := &Request{Rank: new(core.RankConfig)}
			perturb(l.get(want))
			query.Set(f.name, queryValue(l.get(want)))
			if strings.HasPrefix(f.path, "rank.") {
				query.Set("rank", "1")
			} else {
				want.Rank = nil
			}
			b, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			body = string(b)
		}
		fromQuery, fromJSON := &Request{}, &Request{}
		if err := fromQuery.decodeQuery(query); err != nil {
			t.Fatalf("?%s: %v", query.Encode(), err)
		}
		if err := decodeJSON(strings.NewReader(body), fromJSON); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !reflect.DeepEqual(fromQuery, fromJSON) {
			t.Errorf("?%s decodes to %+v, %s to %+v", query.Encode(), fromQuery, body, fromJSON)
		}
	}
	for path := range leaves {
		if !covered[path] {
			t.Errorf("Request field %s has no query parameter", path)
		}
	}
}

// TestTraceRankTopK: rank_top_k reaches the ranker from the trace
// endpoint, and a negative value is a 400 there as it is in a JSON body.
func TestTraceRankTopK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, _ := lenetTraceBytes(t)
	const q = "inw=28&ind=1&classes=10&rank=1&rank_classes=2&rank_per_class=12&rank_epochs=1&rank_max_candidates=3"
	accuracies := func(query string) []float64 {
		ar, code, _ := postTraceJSON(t, ts, query, raw)
		if code != http.StatusOK || len(ar.Scores) == 0 {
			t.Fatalf("?%s: status %d", query, code)
		}
		var out []float64
		for _, sc := range ar.Scores {
			if sc.Accuracy == nil {
				t.Fatalf("?%s: candidate %d unscored: %s", query, sc.Candidate, sc.Error)
			}
			out = append(out, *sc.Accuracy)
		}
		return out
	}
	// Over two classes top-2 accuracy is 1 whatever the network learned;
	// top-1 after one epoch is not.
	top1 := accuracies(q)
	if top1[len(top1)-1] == 1 {
		t.Fatalf("top-1 accuracies %v already all 1: the check below would prove nothing", top1)
	}
	for _, acc := range accuracies(q + "&rank_top_k=2") {
		if acc != 1 {
			t.Fatalf("rank_top_k=2 over 2 classes gave accuracy %v: top_k never reached the ranker", acc)
		}
	}
	if code, _, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&rank=1&rank_top_k=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("rank_top_k=-1: status %d, want 400", code)
	}
}

// TestInapplicableFieldsRejected: a field that does not apply to the
// endpoint's mode, or that only the server may set, is a 400 — never
// silently ignored.
func TestInapplicableFieldsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"model=lenet", "depth_div=2", "filters=4", "zero_frac=0.5", "seed=3", "weights=1",
		"rank_classes=2", "rank=0&rank_epochs=2",
	} {
		if code, _, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&"+q, nil); code != http.StatusBadRequest {
			t.Errorf("trace ?%s: status %d, want 400", q, code)
		}
	}
	for _, b := range []string{
		`{"model":"lenet","inw":28}`, `{"model":"lenet","ind":1}`, `{"model":"lenet","elem":4}`,
		`{"model":"lenet","mode":"trace"}`, `{"model":"lenet","trace_sha256":"ab"}`,
	} {
		if _, code := postSimulate(t, ts, b); code != http.StatusBadRequest {
			t.Errorf("simulate %s: status %d, want 400", b, code)
		}
	}
	if got := s.Metrics().Counter("started"); got != 0 {
		t.Fatalf("rejected requests started %d jobs", got)
	}
}

// TestFloatBoundsRejected: a negative or non-finite tol, a zero_frac
// outside [0,1) and a NaN rate are 400s instead of silently falling back
// to defaults under their own cache keys.
func TestFloatBoundsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"tol=NaN", "tol=-1", "tol=Inf", "drop_rate=NaN", "defense=dummy&defense_dummy_rate=NaN"} {
		if code, _, _ := postTrace(t, ts, "inw=28&ind=1&classes=10&"+q, nil); code != http.StatusBadRequest {
			t.Errorf("trace ?%s: status %d, want 400", q, code)
		}
	}
	for _, b := range []string{
		`{"model":"lenet","tol":-1}`,
		`{"model":"prunedconv1","filters":2,"zero_frac":1}`,
		`{"model":"prunedconv1","filters":2,"zero_frac":-0.25}`,
	} {
		if _, code := postSimulate(t, ts, b); code != http.StatusBadRequest {
			t.Errorf("simulate %s: status %d, want 400", b, code)
		}
	}
}

// FuzzRequestDecode feeds hostile query strings and JSON bodies through
// both decoders and Validate. Nothing may panic, and every accepted request
// must survive the job-payload round trip with an equal Request and key.
func FuzzRequestDecode(f *testing.F) {
	f.Add("inw=28&ind=1&classes=10", []byte(`{"model":"lenet"}`))
	f.Add("inw=28&ind=1&classes=10&rank=1&rank_top_k=2&rank_halving=yes&rank_eta=3&tol=0.5&dataflow=ws",
		[]byte(`{"model":"prunedconv1","filters":4,"zero_frac":0.5,"seed":0,"weights":true,"rank":{"top_k":2}}`))
	f.Add("inw=28&ind=1&classes=10&defense=oram&defense_oram_z=4&drop_rate=0.1&corrupt_seed=-9&elem=2",
		[]byte(`{"model":"lenet","defense":{"kind":"dummy","dummy_rate":0.5},"corrupt":{"drop_rate":1},"dataflow":"rs"}`))
	f.Add("inw=1e9&tol=NaN&rank_eta=2&seed=x&max_structures=-1", []byte(`{"model":"","rank":null,"seed":null,"tol":-0}`))
	tr := &memtrace.Trace{BlockBytes: 4, Accesses: []memtrace.Access{{Addr: 64, Count: 2}}}
	roundTrip := func(t *testing.T, req *Request, tr *memtrace.Trace) {
		payload, err := encodePayload(req, tr)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", req, err)
		}
		got, _, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("payload of %+v does not decode: %v", req, err)
		}
		if !reflect.DeepEqual(got, req) || got.cacheKey() != req.cacheKey() || req.cacheKey() == "" {
			t.Fatalf("payload round trip changed the request:\n sent %+v\n  got %+v", req, got)
		}
	}
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		q, _ := url.ParseQuery(query)
		req := &Request{}
		if req.decodeQuery(q) == nil && req.Validate("trace", 0) == nil {
			req.TraceSHA256 = "00"
			roundTrip(t, req, tr)
		}
		req = &Request{}
		if decodeJSON(bytes.NewReader(body), req) == nil && req.Validate("simulate", 7) == nil {
			roundTrip(t, req, nil)
		}
	})
}
