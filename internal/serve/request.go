package serve

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/url"
	"reflect"
	"strconv"
	"strings"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/corrupt"
	"cnnrev/internal/defense"
	"cnnrev/internal/memtrace"
	"cnnrev/internal/structrev"
)

// Request is one attack job, declared once for every surface it crosses:
// the JSON body of /v1/attack/simulate, the query string of
// /v1/attack/trace (through queryFields), the job-store payload header, and
// — hashed — the result-cache key. Mode and TraceSHA256 are server-derived:
// the handlers set them, clients may not.
type Request struct {
	Mode        string `json:"mode"`
	TraceSHA256 string `json:"trace_sha256"` // of the serialized upload

	// Trace mode: the adversary-known input geometry. Elem is a pointer so
	// an explicit elem=0 is rejected instead of read as the default 4.
	InW  int  `json:"inw"`
	InD  int  `json:"ind"`
	Elem *int `json:"elem"`

	// Simulate mode: the victim spec. Seed is a pointer so an absent seed
	// (the default 2, which the examples and golden corpus use) and an
	// explicit seed 0 — a legitimate victim of its own — never share a
	// cache key.
	Model    string  `json:"model"`
	DepthDiv int     `json:"depth_div"`
	Filters  int     `json:"filters"`
	ZeroFrac float64 `json:"zero_frac"`
	Seed     *int64  `json:"seed"`
	Weights  bool    `json:"weights"`

	Classes       int     `json:"classes"`
	Modular       bool    `json:"modular"`
	Tol           float64 `json:"tol"`
	AllowStrideOK bool    `json:"allow_stride_over_kernel"`
	// MaxStructures is, once validated, the effective solver cap: the
	// request's cap merged with the submitting frontend's -max-structures.
	// Workers solve under it verbatim, so a replica with a different local
	// cap still produces the result the frontend keyed.
	MaxStructures int `json:"max_structures"`
	MaxReturn     int `json:"max_return"`
	// Tolerant forces the noise-tolerant analysis even on a clean trace;
	// corruption implies it.
	Tolerant bool `json:"tolerant"`
	// Dataflow is the capture schedule in simulate mode and the adversary's
	// declared prior in trace mode; validation canonicalizes it.
	Dataflow string `json:"dataflow"`
	// Defense transforms the trace before any adversary-side stage (the
	// countermeasure runs at the accelerator); Corrupt then degrades it as
	// an imperfect bus probe would.
	Defense defenseSpec      `json:"defense"`
	Corrupt corrupt.Config   `json:"corrupt"`
	Rank    *core.RankConfig `json:"rank"` // nil: no ranking

	// Neither field changes a complete result, so the cache key clears
	// both: TimeoutMS bounds the job (capped by the server's -timeout) and
	// CacheBypass skips the lookup (the fresh result still refreshes the
	// entry).
	TimeoutMS   int  `json:"timeout_ms"`
	CacheBypass bool `json:"cache_bypass"`
}

// defenseSpec is the "defense" request object: defense.Config with its
// ORAM knobs flattened.
type defenseSpec struct {
	Kind           string  `json:"kind"`
	Seed           int64   `json:"seed"`
	DummyRate      float64 `json:"dummy_rate"`
	BucketBytes    int     `json:"bucket_bytes"`
	OnChipBytes    int64   `json:"onchip_bytes"`
	ORAMZ          int     `json:"oram_z"`
	ORAMBlockBytes int     `json:"oram_block_bytes"`
}

func (d defenseSpec) config() defense.Config {
	cfg := defense.Config{Kind: d.Kind, Seed: d.Seed, DummyRate: d.DummyRate, BucketBytes: d.BucketBytes, OnChipBytes: d.OnChipBytes}
	cfg.ORAM.Z, cfg.ORAM.BlockBytes = d.ORAMZ, d.ORAMBlockBytes
	return cfg
}

// queryFields maps each /v1/attack/trace query parameter to the JSON path
// of the Request field it sets; the field's type decides how the value
// parses. Query parameters outside the table (wait) are not request fields.
var queryFields = []struct{ name, path string }{
	{"inw", "inw"}, {"ind", "ind"}, {"elem", "elem"},
	{"model", "model"}, {"depth_div", "depth_div"}, {"filters", "filters"},
	{"zero_frac", "zero_frac"}, {"seed", "seed"}, {"weights", "weights"},
	{"classes", "classes"}, {"modular", "modular"}, {"tol", "tol"},
	{"allow_stride_over_kernel", "allow_stride_over_kernel"},
	{"max_structures", "max_structures"}, {"max_return", "max_return"},
	{"tolerant", "tolerant"}, {"dataflow", "dataflow"},
	{"defense", "defense.kind"}, {"defense_seed", "defense.seed"},
	{"defense_dummy_rate", "defense.dummy_rate"},
	{"defense_bucket_bytes", "defense.bucket_bytes"},
	{"defense_onchip_bytes", "defense.onchip_bytes"},
	{"defense_oram_z", "defense.oram_z"},
	{"defense_oram_block", "defense.oram_block_bytes"},
	{"corrupt_seed", "corrupt.seed"}, {"drop_rate", "corrupt.drop_rate"},
	{"split_rate", "corrupt.split_rate"}, {"coalesce_rate", "corrupt.coalesce_rate"},
	{"reorder_window", "corrupt.reorder_window"},
	{"interference_rate", "corrupt.interference_rate"},
	{"interference_regions", "corrupt.interference_regions"},
	{"probe_granularity_blocks", "corrupt.probe_granularity_blocks"},
	// rank is a boolean that creates the rank object; it must precede the
	// rank_* knobs, which require it.
	{"rank", "rank"}, {"rank_classes", "rank.classes"},
	{"rank_per_class", "rank.per_class"}, {"rank_epochs", "rank.epochs"},
	{"rank_depth_div", "rank.depth_div"}, {"rank_top_k", "rank.top_k"},
	{"rank_seed", "rank.seed"}, {"rank_max_candidates", "rank.max_candidates"},
	{"rank_halving", "rank.halving"}, {"rank_eta", "rank.eta"},
	{"rank_min_epochs", "rank.min_epochs"},
	{"timeout_ms", "timeout_ms"}, {"cache_bypass", "cache_bypass"},
}

// decodeQuery sets every non-empty query parameter in queryFields.
func (r *Request) decodeQuery(q url.Values) error {
	for _, f := range queryFields {
		if v := q.Get(f.name); v != "" {
			if err := r.setPath(f.name, f.path, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// setPath parses query parameter name=v into the field at the JSON path.
func (r *Request) setPath(name, path, v string) error {
	fv := reflect.ValueOf(r).Elem()
	parts := strings.Split(path, ".")
	for i, p := range parts {
		if i > 0 && fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				return fmt.Errorf("%s requires %s=1", name, strings.Join(parts[:i], "."))
			}
			fv = fv.Elem()
		}
		fv = fieldByJSON(fv, p)
	}
	if fv.Kind() == reflect.Pointer {
		if fv.Type().Elem().Kind() == reflect.Struct {
			// A nested object's presence flag.
			on, err := parseBool(name, v)
			if on && fv.IsNil() {
				fv.Set(reflect.New(fv.Type().Elem()))
			}
			return err
		}
		fv.Set(reflect.New(fv.Type().Elem()))
		fv = fv.Elem()
	}
	switch fv.Kind() {
	case reflect.Bool:
		b, err := parseBool(name, v)
		fv.SetBool(b)
		return err
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(v, 10, fv.Type().Bits())
		fv.SetInt(n)
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, v)
		}
	case reflect.Float64:
		f, err := strconv.ParseFloat(v, 64)
		fv.SetFloat(f)
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, v)
		}
	case reflect.String:
		fv.SetString(v)
	default:
		return fmt.Errorf("serve: query %s sets a %s field", name, fv.Kind())
	}
	return nil
}

// fieldByJSON returns the field of struct v whose JSON name is name.
func fieldByJSON(v reflect.Value, name string) reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		if tag, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ","); tag == name {
			return v.Field(i)
		}
	}
	panic("serve: no request field " + name)
}

// parseBool parses a boolean query parameter. Values outside the vocabulary
// are an error, not false: silently coercing tolerant=ture or rank=yess to
// false would run the wrong attack under a 200 response.
func parseBool(name, v string) (bool, error) {
	switch v {
	case "", "0", "false", "no":
		return false, nil
	case "1", "true", "yes":
		return true, nil
	}
	return false, fmt.Errorf("bad %s=%q (want one of 0/1/true/false/yes/no)", name, v)
}

// decodeJSON is the strict decoder for simulate bodies and job payloads:
// an unknown field is an error, never silently dropped.
func decodeJSON(rd io.Reader, r *Request) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(r)
}

// within reports v outside [lo,hi] (NaN included) as an error naming the
// field.
func within[T cmp.Ordered](name string, v, lo, hi T) error {
	if !(v >= lo && v <= hi) {
		return fmt.Errorf("%s must be in [%v,%v], got %v", name, lo, hi, v)
	}
	return nil
}

func nonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", name, v)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Validate checks a client-decoded request for mode ("trace" or
// "simulate") and resolves it to the canonical form the job store carries
// and the cache keys: Mode set, the simulate seed and trace elem defaulted,
// the dataflow name canonicalized, and MaxStructures merged with the
// server's cap (0 = solver default). Knobs that do not apply — a field of
// the other mode, an unselected defense kind's setting, eta/min_epochs
// without halving — are rejected rather than ignored: a silent no-op would
// still mint a distinct cache key for a result the knob never shaped.
func (r *Request) Validate(mode string, serverCap int) error {
	if r.Mode != "" || r.TraceSHA256 != "" {
		return errors.New("mode and trace_sha256 are set by the server")
	}
	type knob struct {
		name string
		set  bool
	}
	inapplicable := []knob{{"model", r.Model != ""}, {"depth_div", r.DepthDiv != 0}, {"filters", r.Filters != 0},
		{"zero_frac", r.ZeroFrac != 0}, {"seed", r.Seed != nil}, {"weights", r.Weights}}
	switch mode {
	case "trace":
		if r.Elem == nil {
			r.Elem = new(int)
			*r.Elem = 4
		}
		if err := firstErr(within("inw", r.InW, 1, 1<<14), within("ind", r.InD, 1, 1<<12),
			within("classes", r.Classes, 1, 1<<20), within("elem", *r.Elem, 1, 64)); err != nil {
			return err
		}
	case "simulate":
		inapplicable = []knob{{"inw", r.InW != 0}, {"ind", r.InD != 0}, {"elem", r.Elem != nil}}
		if r.Model == "" {
			return errors.New("missing model")
		}
		if !(r.ZeroFrac >= 0 && r.ZeroFrac < 1) {
			return fmt.Errorf("zero_frac must be in [0,1), got %g", r.ZeroFrac)
		}
		if err := firstErr(nonNegative("classes", r.Classes), nonNegative("depth_div", r.DepthDiv),
			nonNegative("filters", r.Filters)); err != nil {
			return err
		}
		if r.Seed == nil {
			r.Seed = new(int64)
			*r.Seed = 2
		}
	default:
		return fmt.Errorf("serve: unknown mode %q", mode)
	}
	for _, k := range inapplicable {
		if k.set {
			return fmt.Errorf("%s does not apply to %s mode", k.name, mode)
		}
	}
	r.Mode = mode
	if !(r.Tol >= 0 && r.Tol <= math.MaxFloat64) {
		return fmt.Errorf("tol must be finite and >= 0, got %g", r.Tol)
	}
	if err := firstErr(nonNegative("max_structures", r.MaxStructures), nonNegative("max_return", r.MaxReturn),
		nonNegative("timeout_ms", r.TimeoutMS)); err != nil {
		return err
	}
	df, err := accel.ParseDataflow(r.Dataflow)
	if err != nil {
		return err
	}
	r.Dataflow = df.String()
	c := r.Corrupt
	if err := firstErr(within("drop_rate", c.DropRate, 0, 1), within("split_rate", c.SplitRate, 0, 1),
		within("coalesce_rate", c.CoalesceRate, 0, 1), within("interference_rate", c.InterferenceRate, 0, 1),
		within("reorder_window", c.ReorderWindow, 0, 1<<20), within("interference_regions", c.InterferenceRegions, 0, 64),
		within("probe_granularity_blocks", c.ProbeGranularityBlocks, 0, 1<<20)); err != nil {
		return err
	}
	if err := r.Defense.validate(); err != nil {
		return err
	}
	if p := r.Rank; p != nil {
		if err := firstErr(nonNegative("rank classes", p.Classes), nonNegative("rank per_class", p.PerClass),
			nonNegative("rank epochs", p.Epochs), nonNegative("rank depth_div", p.DepthDiv),
			nonNegative("rank top_k", p.TopK), nonNegative("rank max_candidates", p.MaxCandidates),
			within("rank eta", p.Eta, 0, 64), within("rank min_epochs", p.MinEpochs, 0, 1<<20)); err != nil {
			return err
		}
		if !p.Halving && (p.Eta != 0 || p.MinEpochs != 0) {
			return errors.New("rank eta/min_epochs require halving=true")
		}
	}
	limit := structrev.DefaultOptions().MaxStructures
	if serverCap > 0 {
		limit = serverCap
	}
	if r.MaxStructures > 0 && (limit == 0 || r.MaxStructures < limit) {
		limit = r.MaxStructures
	}
	r.MaxStructures = limit
	return nil
}

// validate runs defense.Config.Validate and rejects knobs of a kind other
// than the selected one.
func (d defenseSpec) validate() error {
	cfg := d.config()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.Enabled() {
		if d != (defenseSpec{Kind: d.Kind}) {
			return fmt.Errorf("defense_* knobs require a defense kind (one of %v)", defense.Kinds[1:])
		}
		return nil
	}
	for _, k := range []struct {
		knob, kind string
		set        bool
	}{
		{"defense_dummy_rate", "dummy", d.DummyRate != 0},
		{"defense_bucket_bytes", "pad", d.BucketBytes != 0},
		{"defense_onchip_bytes", "fuse", d.OnChipBytes != 0},
		{"defense_oram_*", "oram", d.ORAMZ != 0 || d.ORAMBlockBytes != 0},
	} {
		if k.set && cfg.Kind != k.kind {
			return fmt.Errorf("%s applies to defense=%s, not %q", k.knob, k.kind, cfg.Kind)
		}
	}
	return nil
}

// solverOptions maps a validated request onto the solver's options, taking
// the resolved cap verbatim.
func (r *Request) solverOptions() structrev.Options {
	opt := structrev.DefaultOptions()
	opt.IdenticalModules = r.Modular
	opt.AllowStrideOverKernel = r.AllowStrideOK
	if r.Tol > 0 {
		opt.TimingSpreadMax = r.Tol
	}
	opt.MaxStructures = r.MaxStructures
	return opt
}

// cacheKey is the hex SHA-256 of the validated request's canonical JSON,
// with the two fields that cannot change a complete result cleared.
func (r *Request) cacheKey() string {
	k := *r
	k.TimeoutMS, k.CacheBypass = 0, false
	b, err := json.Marshal(&k)
	if err != nil {
		return "" // unreachable once validated: every float is finite
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// encodePayload frames a validated request for the job store: a 4-byte
// little-endian header length, the request's canonical JSON, then (trace
// mode) the serialized trace in its native form, so a multi-megabyte upload
// is never base64-inflated through JSON.
func encodePayload(req *Request, tr *memtrace.Trace) ([]byte, error) {
	hdr, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(hdr))))
	buf.Write(hdr)
	if req.Mode == "trace" {
		if tr == nil {
			return nil, errors.New("serve: trace mode request without a trace")
		}
		if err := tr.Write(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodePayload parses a job payload back into its request and trace. The
// payload comes from encodePayload (possibly in another process), so errors
// mean version skew or corruption, not client input.
func decodePayload(payload []byte) (*Request, *memtrace.Trace, error) {
	if len(payload) < 4 {
		return nil, nil, errors.New("serve: job payload too short")
	}
	hlen := binary.LittleEndian.Uint32(payload[:4])
	if int64(hlen) > int64(len(payload)-4) {
		return nil, nil, fmt.Errorf("serve: job payload header length %d exceeds payload", hlen)
	}
	req := &Request{}
	if err := decodeJSON(bytes.NewReader(payload[4:4+hlen]), req); err != nil {
		return nil, nil, fmt.Errorf("serve: job payload header: %w", err)
	}
	if (req.Mode == "trace" && req.Elem == nil) || (req.Mode == "simulate" && req.Seed == nil) {
		return nil, nil, fmt.Errorf("serve: job payload header is not a validated %q request", req.Mode)
	}
	if req.Mode != "trace" {
		return req, nil, nil
	}
	tr, err := memtrace.DecodeTrace(payload[4+hlen:])
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job payload trace: %w", err)
	}
	return req, tr, nil
}
