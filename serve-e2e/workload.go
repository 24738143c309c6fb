package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/savedmodel"
	"repro/internal/serving"
	"repro/tf"
)

const (
	inputSize  = 96
	numClasses = 1000
	modelName  = "mobilenet"
	// modelSeed fixes the synthetic weights: every workload seed serves
	// the same model, so seeds vary only the traffic.
	modelSeed = 1
)

// Output tolerance: a prediction p matches its reference r when
// |p-r| <= refAbsTol + refRelTol·|r| for every class. The reference runs
// on the plain `cpu` backend, the served model on `node`; both compute
// float32 softmax probabilities whose summation orders differ.
const (
	refAbsTol = 1e-7
	refRelTol = 1e-4
)

// workload is one traffic mix. All are closed loops: each connection sends
// its next request only after reading the previous response.
type workload struct {
	name   string
	alpha  float64       // MobileNet width multiplier (input 96×96×3)
	perReq int           // instances per request body
	conns  int           // predict connections
	scrape time.Duration // GET /metrics interval on its own connection; 0 = none
	pool   int           // distinct seeded instances
	bodies int           // distinct pre-encoded request bodies
}

var workloads = []workload{
	{name: "json-small", alpha: 0.25, perReq: 1, conns: 2, pool: 32, bodies: 32},
	{name: "json-heavy", alpha: 1.0, perReq: 1, conns: 2, pool: 16, bodies: 16},
	{name: "batch8-scrape", alpha: 0.25, perReq: 8, conns: 1, scrape: 250 * time.Millisecond, pool: 32, bodies: 16},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want json-small, json-heavy or batch8-scrape)", name)
}

// body is one pre-encoded predict request and the pool instances it
// carries, in order.
type body struct {
	data  []byte
	insts []int
}

// inputs is everything a run sends and checks against, built from the seed
// before any timing starts.
type inputs struct {
	source *savedmodel.GraphDef // the exported model, converted at each set-up
	insts  []serving.Instance   // instances exactly as the server parses them
	refs   [][]float32          // reference prediction per instance
	bodies []body
}

// sourceModel builds the workload's MobileNet and exports it as the
// GraphDef the converter consumes.
func sourceModel(w workload) (*savedmodel.GraphDef, error) {
	m, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: w.alpha, InputSize: inputSize, NumClasses: numClasses, IncludeTop: true, Seed: modelSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("building MobileNet α=%.2f: %w", w.alpha, err)
	}
	defer m.Dispose()
	g, err := tf.ExportSavedModel(m, false)
	if err != nil {
		return nil, fmt.Errorf("exporting MobileNet: %w", err)
	}
	return g, nil
}

// makeInputs generates the seeded instance pool, pre-encodes the request
// bodies and computes the reference predictions on the cpu backend.
func makeInputs(w workload, seed int64) (*inputs, error) {
	src, err := sourceModel(w)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{source: src}
	frags := make([][]byte, w.pool)
	for i := range frags {
		frags[i] = encodeImage(smoothImage(rng))
		// Parse the fragment the way the server does, so the reference
		// sees exactly the float32 values the served model sees.
		var v any
		if err := json.Unmarshal(frags[i], &v); err != nil {
			return nil, fmt.Errorf("decoding instance %d: %w", i, err)
		}
		inst, err := serving.ParseInstance(v)
		if err != nil {
			return nil, fmt.Errorf("parsing instance %d: %w", i, err)
		}
		in.insts = append(in.insts, inst)
	}
	for b := 0; b < w.bodies; b++ {
		var bd body
		if w.perReq == 1 {
			bd.insts = []int{b % w.pool}
		} else {
			bd.insts = rng.Perm(w.pool)[:w.perReq]
		}
		var buf bytes.Buffer
		buf.WriteString(`{"instances":[`)
		for j, idx := range bd.insts {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(frags[idx])
		}
		buf.WriteString(`]}`)
		bd.data = buf.Bytes()
		in.bodies = append(in.bodies, bd)
	}
	in.refs, err = referencePredictions(src, in.insts)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// smoothImage returns one 96×96×3 image in [0,1]: per channel, a sum of
// three random low-frequency plane waves plus a brightness offset, clamped.
// Offsets push some regions to exactly 0 or 1, so the activation sparsity
// that steers the native GEMM dispatch varies from image to image.
func smoothImage(rng *rand.Rand) []float32 {
	vals := make([]float32, inputSize*inputSize*3)
	for c := 0; c < 3; c++ {
		type wave struct{ fx, fy, phase, amp float64 }
		var waves [3]wave
		for k := range waves {
			waves[k] = wave{
				fx: 0.5 + 2.5*rng.Float64(), fy: 0.5 + 2.5*rng.Float64(),
				phase: 2 * math.Pi * rng.Float64(), amp: 0.1 + 0.2*rng.Float64(),
			}
		}
		offset := 0.5 + 0.6*(rng.Float64()-0.5)
		for y := 0; y < inputSize; y++ {
			for x := 0; x < inputSize; x++ {
				v := offset
				for _, wv := range waves {
					v += wv.amp * math.Sin(2*math.Pi*(wv.fx*float64(x)+wv.fy*float64(y))/inputSize+wv.phase)
				}
				vals[(y*inputSize+x)*3+c] = float32(math.Min(1, math.Max(0, v)))
			}
		}
	}
	return vals
}

// encodeImage renders an image as the nested [96][96][3] JSON array of a
// KServe-V1 instance, five decimals per value.
func encodeImage(vals []float32) []byte {
	buf := make([]byte, 0, len(vals)*9)
	buf = append(buf, '[')
	for y := 0; y < inputSize; y++ {
		if y > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for x := 0; x < inputSize; x++ {
			if x > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for c := 0; c < 3; c++ {
				if c > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, float64(vals[(y*inputSize+x)*3+c]), 'f', 5, 32)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, ']')
	}
	return append(buf, ']')
}

// referencePredictions converts the source model once and runs every
// instance through graphmodel on the reference `cpu` backend, on an engine
// of its own so the served engine's state is untouched.
func referencePredictions(src *savedmodel.GraphDef, insts []serving.Instance) ([][]float32, error) {
	store := converter.NewMemStore()
	if _, err := converter.Convert(src, store, converter.Options{}); err != nil {
		return nil, fmt.Errorf("converting reference model: %w", err)
	}
	eng := core.Global().SpawnReplica()
	if err := eng.SetBackend("cpu"); err != nil {
		return nil, err
	}
	gm, err := graphmodel.Load(store, graphmodel.WithEngine(eng))
	if err != nil {
		return nil, fmt.Errorf("loading reference model: %w", err)
	}
	defer eng.RunExclusive(gm.Dispose)
	refs := make([][]float32, len(insts))
	for i, inst := range insts {
		var x *tf.Tensor
		eng.RunExclusive(func() {
			x = eng.MakeTensor(inst.Values, append([]int{1}, inst.Shape...), tf.Float32)
		})
		y, err := gm.Predict(x)
		eng.RunExclusive(func() {
			x.Dispose()
			if err == nil {
				refs[i] = append([]float32(nil), eng.ReadSync(y)...)
				y.Dispose()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("reference prediction %d: %w", i, err)
		}
		if len(refs[i]) != numClasses {
			return nil, fmt.Errorf("reference prediction %d has %d classes, want %d", i, len(refs[i]), numClasses)
		}
	}
	return refs, nil
}

// predictResponse is the KServe-V1 response body.
type predictResponse struct {
	Predictions [][]float64 `json:"predictions"`
}

// checkResponse reports whether a predict response body carries, in
// order, the reference predictions of the body's instances within the
// stated tolerance.
func checkResponse(data []byte, bd body, refs [][]float32) error {
	var resp predictResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("malformed response: %w", err)
	}
	if len(resp.Predictions) != len(bd.insts) {
		return fmt.Errorf("%d predictions for %d instances", len(resp.Predictions), len(bd.insts))
	}
	for j, idx := range bd.insts {
		got, want := resp.Predictions[j], refs[idx]
		if len(got) != len(want) {
			return fmt.Errorf("prediction %d has %d classes, want %d", j, len(got), len(want))
		}
		for k, r := range want {
			if d := math.Abs(got[k] - float64(r)); !(d <= refAbsTol+refRelTol*math.Abs(float64(r))) {
				return fmt.Errorf("prediction %d class %d: got %g, reference %g", j, k, got[k], r)
			}
		}
	}
	return nil
}
