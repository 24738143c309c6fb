package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// legacyDecode is the predict-body pipeline the streaming decoder
// replaced: json.Decoder into []json.RawMessage, then json.Unmarshal into
// an any tree and ParseInstance per element. It is the oracle the
// decoder must agree with.
func legacyDecode(body []byte) ([]Instance, error) {
	var req struct {
		Instances []json.RawMessage `json:"instances"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	if len(req.Instances) == 0 {
		return nil, errNoInstances
	}
	insts := make([]Instance, len(req.Instances))
	for i, raw := range req.Instances {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		inst, err := ParseInstance(v)
		if err != nil {
			return nil, err
		}
		insts[i] = inst
	}
	return insts, nil
}

// sameInstances reports the first difference between two decodes: the
// shapes must be equal and the values bit-equal.
func sameInstances(got, want []Instance) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d instances, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if fmt.Sprint(g.Shape) != fmt.Sprint(w.Shape) || (g.Shape == nil) != (w.Shape == nil) {
			return fmt.Errorf("instance %d: shape %v, want %v", i, g.Shape, w.Shape)
		}
		if len(g.Values) != len(w.Values) {
			return fmt.Errorf("instance %d: %d values, want %d", i, len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			if math.Float32bits(g.Values[j]) != math.Float32bits(w.Values[j]) {
				return fmt.Errorf("instance %d value %d: %v, want %v", i, j, g.Values[j], w.Values[j])
			}
		}
	}
	return nil
}

// FuzzDecodePredict checks the streaming decoder against the legacy
// pipeline: both accept or both reject, accepted bodies decode to equal
// shapes and bit-equal values whether the body arrives whole or one byte
// per read, nothing panics, and the decoder's allocation stays within
// checkDecodeAllocBound.
func FuzzDecodePredict(f *testing.F) {
	f.Add([]byte(`{"instances": [[1, 2.5], [-3e-2, 0]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := legacyDecode(body)

		got, err := decodeInstances(bytes.NewReader(body))
		checkDecodeAllocBound(t, body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode error %v, legacy error %v", err, wantErr)
		}
		if err == nil {
			if diff := sameInstances(got, want); diff != nil {
				t.Fatal(diff)
			}
		}

		trickled, terr := decodeInstances(iotest.OneByteReader(bytes.NewReader(body)))
		if (terr == nil) != (err == nil) {
			t.Fatalf("one byte per read: error %v, whole body: %v", terr, err)
		}
		if terr == nil {
			if diff := sameInstances(trickled, got); diff != nil {
				t.Fatalf("one byte per read: %v", diff)
			}
		}
	})
}

// checkDecodeAllocBound fails t when decoding body allocates more than
// 128 bytes per body byte plus 128 KiB (a fresh window and scratch).
// The worst case is a body of two-byte scalar instances ("0,"), each a
// 48-byte Instance in a slice that doubles: up to ~96 bytes per byte.
// TotalAlloc is process-wide, so another goroutine can inflate one
// reading; a bound the decoder really breaks fails all three.
func checkDecodeAllocBound(t *testing.T, body []byte) {
	t.Helper()
	limit, allocated := uint64(128*len(body)+128<<10), uint64(math.MaxUint64)
	for try := 0; try < 3 && allocated > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// Only the allocation is measured here; callers check the outcome.
		_, _ = decodeInstances(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if allocated > limit {
		t.Errorf("decode of %d bytes allocated %d bytes, limit %d", len(body), allocated, limit)
	}
}

// TestDecodeAllocBoundLargeBodies holds the fuzz target's allocation
// bound on bodies too large for the fuzzer to reach: many tiny
// instances, many empty ones, one long row and the deepest nesting.
func TestDecodeAllocBoundLargeBodies(t *testing.T) {
	for _, body := range []string{
		`{"instances": [` + strings.Repeat("0,", 1<<16) + `0]}`,
		`{"instances": [` + strings.Repeat("[],", 1<<16) + `[]]}`,
		`{"instances": [[` + strings.Repeat("0,", 1<<16) + `0]]}`,
		`{"instances": [` + strings.Repeat("[", 9998) + "1" + strings.Repeat("]", 9998) + `]}`,
		`{"x": ` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `, "instances": [1]}`,
	} {
		if _, err := decodeInstances(strings.NewReader(body)); err != nil {
			t.Fatalf("%.40q...: %v", body, err)
		}
		checkDecodeAllocBound(t, []byte(body))
	}
}

// malformedBodies are predict bodies the server must refuse with 400;
// the seed corpus of FuzzDecodePredict holds them and the accepted edge
// cases, each checked against the legacy pipeline.
var malformedBodies = map[string]string{
	"empty body":            ``,
	"top-level null":        `null`,
	"top-level array":       `[[1]]`,
	"no instances key":      `{"inputs": [[1]]}`,
	"instances null":        `{"instances": null}`,
	"instances empty":       `{"instances": []}`,
	"instances not array":   `{"instances": 5}`,
	"last duplicate null":   `{"instances": [[1]], "instances": null}`,
	"unknown key invalid":   `{"x": [1,], "instances": [[1]]}`,
	"ragged rows":           `{"instances": [[[1], [2, 3]]]}`,
	"number then array":     `{"instances": [[1, [2]]]}`,
	"array then number":     `{"instances": [[[1], 2]]}`,
	"empty then non-empty":  `{"instances": [[[], [1]]]}`,
	"float64 overflow":      `{"instances": [[1e400]]}`,
	"string element":        `{"instances": [["a"]]}`,
	"bool element":          `{"instances": [[true]]}`,
	"object element":        `{"instances": [[{}]]}`,
	"null element":          `{"instances": [null]}`,
	"leading zero":          `{"instances": [[01]]}`,
	"bare dot":              `{"instances": [[1.]]}`,
	"NaN literal":           `{"instances": [[NaN]]}`,
	"trailing comma":        `{"instances": [[1],]}`,
	"unterminated":          `{"instances": [[1]`,
	"depth 10001":           `{"instances": [` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `]}`,
	"control char in key":   "{\"a\x01\": 1, \"instances\": [[1]]}",
	"control char in value": "{\"x\": \"\x01n\", \"instances\": [[1]]}",
	"bad escape in key":     `{"\x": 1, "instances": [[1]]}`,
	"sticky type error":     `{"instances": "x", "instances": [[1]]}`,
	"unknown key no colon":  `{"x" 1, "instances": [[1]]}`,
	"object trailing comma": `{"instances": [[1]],}`,
}

// TestDecodeLongToken decodes a number longer than the read window,
// which must grow to hold it.
func TestDecodeLongToken(t *testing.T) {
	body := `{"instances": [[0.` + strings.Repeat("3", 3*windowSize) + `, 2]]}`
	want, err := legacyDecode([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeInstances(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameInstances(got, want); diff != nil {
		t.Fatal(diff)
	}
}

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// TestDecodeLongTokenTrickled decodes a 4 MiB number that arrives 256
// bytes per read. Each byte of the token must be scanned a bounded number
// of times: a decoder that re-parses the token after every refill scans
// about 32 GiB here and takes tens of seconds, a linear one milliseconds.
func TestDecodeLongTokenTrickled(t *testing.T) {
	const digits = 4 << 20
	body := `{"instances": [[0.` + strings.Repeat("3", digits) + `, 2]]}`
	start := time.Now()
	got, err := decodeInstances(chunkReader{strings.NewReader(body), 256})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{float32(1.0 / 3), 2}; len(got) != 1 || !slices.Equal(got[0].Values, want) {
		t.Fatalf("decoded %v, want one instance %v", got, want)
	}
	if elapsed > 2*time.Second {
		t.Errorf("decoding a %d-byte token in 256-byte reads took %v", digits, elapsed)
	}
}

// TestDecoderReuseAfterError reuses one decoder the way the pool does:
// a body that fails inside a skipped value must not leave state that
// grows with every malformed request.
func TestDecoderReuseAfterError(t *testing.T) {
	d := decoderPool.New().(*predictDecoder)
	for i := 0; i < 3; i++ {
		if _, err := d.decode(strings.NewReader(`{"x": ` + strings.Repeat("[", 100))); err == nil {
			t.Fatal("unterminated body decoded without error")
		}
	}
	insts, err := d.decode(strings.NewReader(`{"instances": [[1, 2]]}`))
	if err != nil || len(insts) != 1 || len(insts[0].Values) != 2 {
		t.Fatalf("decode after errors: %v, %v", insts, err)
	}
	if len(d.stack) != 0 {
		t.Errorf("decoder kept %d openers of failed bodies", len(d.stack))
	}
}

// endlessReader yields one byte forever.
type endlessReader byte

func (r endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestDecodeDeepNestingIsAnError feeds an unbounded run of '[': the
// decoder must stop at the nesting bound with an error, without
// recursing and without reading the rest.
func TestDecodeDeepNestingIsAnError(t *testing.T) {
	for _, prefix := range []string{`{"instances": `, `{"other": `} {
		r := &countingReader{r: io.MultiReader(strings.NewReader(prefix), endlessReader('['))}
		_, err := decodeInstances(r)
		var se *syntaxError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), "exceeded max depth") {
			t.Errorf("%s: err = %v, want max-depth syntax error", prefix, err)
		}
		if r.n > maxNestingDepth+2*windowSize {
			t.Errorf("%s: read %d bytes past the nesting bound", prefix, r.n)
		}
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestMalformedPredictBodies posts every malformed body to both predict
// endpoints over real HTTP: each must get a 400 with a JSON error, and
// the server must keep serving.
func TestMalformedPredictBodies(t *testing.T) {
	m := stubModel("echo", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, runnerFunc(echoRunner))
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)
	api := NewServer(reg)
	defer api.Close()
	if err := api.RegisterGraph(GraphSpec{Name: "flow", Root: &GraphNode{Kind: NodeModel, Model: "echo"}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api)
	defer srv.Close()

	for name, body := range malformedBodies {
		if _, err := legacyDecode([]byte(body)); err == nil {
			t.Errorf("%s: the legacy pipeline accepts %.80q", name, body)
		}
	}
	for _, path := range []string{"/v1/models/echo:predict", "/v1/graphs/flow:predict"} {
		for name, body := range malformedBodies {
			code, data, _ := postJSON(t, srv.URL+path, body, nil)
			var e struct {
				Error string `json:"error"`
			}
			if code != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || e.Error == "" {
				t.Errorf("%s %s: status %d body %.120q, want 400 with a JSON error", path, name, code, data)
			}
		}
		code, data, _ := postJSON(t, srv.URL+path, `{"instances": [[1, 2]]}`, nil)
		if code != http.StatusOK || string(data) != "{\"predictions\":[[1,2]]}\n" {
			t.Errorf("%s after malformed bodies: status %d body %q", path, code, data)
		}
	}
}

// rawPost writes head and body to a fresh connection to addr and returns
// the response status, its body and whether the server closes the
// connection after it.
func rawPost(t *testing.T, addr, head, body string) (int, string, bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, head+body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data), resp.Close
}

// TestPredictBodyReadDeadline shortens the body read bound and checks the
// three ways a client can meet it: a body that stalls gets a 400 at the
// deadline; a model run longer than the deadline still answers 200,
// because the deadline never reaches it; and a valid object followed by
// stalled trailing bytes is answered, on a connection then closed, rather
// than holding the handler in the server's discard of the rest.
func TestPredictBodyReadDeadline(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 300 * time.Millisecond
	slow := runnerFunc(func(batch []Instance) ([]Instance, error) {
		time.Sleep(2 * bodyReadTimeout)
		return batch, nil
	})
	m := stubModel("slow", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8, RequestTimeout: 10 * time.Second}, slow)
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	addr := srv.Listener.Addr().String()
	const post = "POST /v1/models/slow:predict HTTP/1.1\r\nHost: x\r\nContent-Length: "
	body := `{"instances": [[1, 2]]}`

	start := time.Now()
	code, data, _ := rawPost(t, addr, post+"100\r\n\r\n", `{"instances": [[1,`)
	if code != http.StatusBadRequest || !strings.Contains(data, "timeout") {
		t.Errorf("stalled body: status %d body %q, want 400 naming the timeout", code, data)
	}
	if elapsed := time.Since(start); elapsed > 5*bodyReadTimeout {
		t.Errorf("stalled body answered after %v, deadline %v", elapsed, bodyReadTimeout)
	}
	if code, data, _ = rawPost(t, addr, post+strconv.Itoa(len(body))+"\r\n\r\n", body); code != http.StatusOK {
		t.Errorf("model run past the body deadline: status %d body %q, want 200", code, data)
	}
	code, data, closed := rawPost(t, addr, post+"100\r\n\r\n", body+"  ")
	if code != http.StatusOK || !closed {
		t.Errorf("stalled trailing bytes: status %d body %q closed %v, want 200 and a closed connection", code, data, closed)
	}
}

// TestNonFinitePredictionIs500 covers an output JSON cannot carry: the
// server must answer 500 with a JSON error on both predict endpoints,
// not 200 with an empty body.
func TestNonFinitePredictionIs500(t *testing.T) {
	nan := runnerFunc(func(batch []Instance) ([]Instance, error) {
		out := make([]Instance, len(batch))
		for i := range batch {
			out[i] = Instance{Values: []float32{0.5, float32(math.NaN())}, Shape: []int{2}}
		}
		return out, nil
	})
	m := stubModel("nan", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8}, nan)
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)
	api := NewServer(reg)
	defer api.Close()
	if err := api.RegisterGraph(GraphSpec{Name: "nanflow", Root: &GraphNode{Kind: NodeModel, Model: "nan"}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api)
	defer srv.Close()
	for _, path := range []string{"/v1/models/nan:predict", "/v1/graphs/nanflow:predict"} {
		code, data, hdr := postJSON(t, srv.URL+path, `{"instances": [[1]]}`, nil)
		var e struct {
			Error string `json:"error"`
		}
		if code != http.StatusInternalServerError || json.Unmarshal(data, &e) != nil || !strings.Contains(e.Error, "NaN") {
			t.Errorf("%s: status %d body %q, want 500 with a JSON error naming NaN", path, code, data)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
	}
}

// TestPredictionsMatchJSONEncoder pins the direct encoder byte for byte
// to json.Encoder over Render, across the 'f'/'e' formatting switch at
// 1e-6 and 1e21, signed zeros, subnormals and every nesting shape.
func TestPredictionsMatchJSONEncoder(t *testing.T) {
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 123.456, 1.0 / 3,
		1e-7, -1e-7, 9.999999e-7, 1e-6, 1.0000001e-6, 1e-5, 1.5e-10, 1e-38,
		math.SmallestNonzeroFloat32, 1e20, 9.999999e20, 1e21, -1e21, 1.5e21,
		1e30, math.MaxFloat32, -math.MaxFloat32, 16777217, 0.1, 0.2, 0.3,
	}
	outs := []Instance{
		{Values: vals, Shape: []int{len(vals)}},
		{Values: vals[:24], Shape: []int{2, 3, 4}},
		{Values: vals[7:8], Shape: nil},
		{Values: []float32{}, Shape: []int{0}},
		{Values: []float32{}, Shape: []int{2, 0}},
		{Values: vals[:6], Shape: []int{3, 1, 2}},
	}
	for n := 1; n <= len(outs); n++ {
		preds := make([]any, n)
		for i, out := range outs[:n] {
			preds[i] = out.Render()
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"predictions": preds}); err != nil {
			t.Fatal(err)
		}
		got, err := appendPredictions(nil, outs[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d outputs:\n got %s\nwant %s", n, got, want.Bytes())
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := appendPredictions(nil, []Instance{{Values: []float32{1, bad}, Shape: []int{2}}}); err == nil {
			t.Errorf("value %v encoded without error", bad)
		}
	}
	if _, err := appendPredictions(nil, []Instance{{}}); err == nil {
		t.Error("an output with no values encoded without error")
	}
}

// TestParseNumberGrammar checks parseNumber against json.Valid on short
// random strings of number bytes: it takes a whole string exactly when
// that string is one JSON number, any prefix it stops at is one, and the
// value is strconv.ParseFloat's.
func TestParseNumberGrammar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "0123456789-+.eE"
	b := make([]byte, 0, 8)
	for i := 0; i < 200000; i++ {
		b = b[:0]
		for n := 1 + rng.Intn(8); len(b) < n; {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		n, f, st := parseNumber(b)
		if whole := st != numBad && n == len(b); whole != json.Valid(b) {
			t.Fatalf("parseNumber(%q) = %d, %v; json.Valid = %v", b, n, st, json.Valid(b))
		}
		if st == numBad {
			continue
		}
		if !json.Valid(b[:n]) {
			t.Fatalf("parseNumber(%q) stopped after %q, not a JSON number", b, b[:n])
		}
		want, err := strconv.ParseFloat(string(b[:n]), 64)
		if (err == nil) != (st == numOK) || st == numOK && math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%q) = %v, %v; ParseFloat = %v, %v", b, f, st, want, err)
		}
	}
}

// imageBody is a one-instance 96×96×3 predict body, the shape of the
// serving benchmark's json-small requests.
func imageBody(tb testing.TB) []byte {
	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	for i := range img.Values {
		img.Values[i] = float32(math.Sin(float64(i))*0.5 + 0.5)
	}
	body, err := json.Marshal(map[string]any{"instances": []any{img.Render()}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeAllocsGate bounds the allocations of decoding one 96×96×3
// instance; the legacy pipeline made about 93k.
func TestDecodeAllocsGate(t *testing.T) {
	const maxAllocs = 128
	body := imageBody(t)
	want, err := legacyDecode(body)
	if err != nil {
		t.Fatal(err)
	}
	var got []Instance
	allocs := testing.AllocsPerRun(20, func() {
		got, err = decodeInstances(bytes.NewReader(body))
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameInstances(got, want); diff != nil {
		t.Fatal(diff)
	}
	if allocs > maxAllocs {
		t.Errorf("decoding one 96x96x3 instance: %.0f allocs, limit %d", allocs, maxAllocs)
	}
}

var decodeSink []Instance

func BenchmarkDecodePredict(b *testing.B) {
	body := imageBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts, err := decodeInstances(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = insts
	}
}
