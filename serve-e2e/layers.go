package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/graphmodel"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/tf"
)

// Standalone layer calls made by the traced run after the measured
// window, while the server is idle: each times a layer's public functions
// directly, on the same artifacts the server loaded.

// Budgets for the repeated standalone calls: at least minReps calls, then
// more until maxReps or the time budget is spent.
const (
	minReps     = 5
	maxReps     = 20
	layerBudget = 1500 * time.Millisecond
)

// repeat calls fn, which times its own call in milliseconds, at least
// least times and then until most or the budget, returning each timing.
func repeat(least, most int, fn func() (float64, error)) ([]float64, error) {
	ms := make([]float64, 0, most)
	start := time.Now()
	for len(ms) < least || (len(ms) < most && time.Since(start) < layerBudget) {
		v, err := fn()
		if err != nil {
			return nil, err
		}
		ms = append(ms, v)
	}
	return ms, nil
}

// codecCosts times the HTTP layer's request decode (json decode of the
// body, then json + serving.ParseInstance per instance, as the predict
// handler does) on the workload's own bodies, and its response encode
// (Instance.Render + JSON encode) on the reference outputs. Both are
// reported per instance, as the median over bodies.
func codecCosts(in *inputs) (decodeMS, encodeMS float64, err error) {
	var dec, enc []float64
	for _, bd := range in.bodies {
		t0 := time.Now()
		var req struct {
			Instances []json.RawMessage `json:"instances"`
		}
		if err := json.NewDecoder(bytes.NewReader(bd.data)).Decode(&req); err != nil {
			return 0, 0, err
		}
		for _, raw := range req.Instances {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil {
				return 0, 0, err
			}
			if _, err := serving.ParseInstance(v); err != nil {
				return 0, 0, err
			}
		}
		dec = append(dec, ms(t0, time.Now())/float64(len(bd.insts)))

		t0 = time.Now()
		preds := make([]any, len(bd.insts))
		for j, idx := range bd.insts {
			preds[j] = serving.Instance{Values: in.refs[idx], Shape: []int{numClasses}}.Render()
		}
		if err := json.NewEncoder(io.Discard).Encode(map[string]any{"predictions": preds}); err != nil {
			return 0, 0, err
		}
		enc = append(enc, ms(t0, time.Now())/float64(len(bd.insts)))
	}
	return median(dec), median(enc), nil
}

func ms(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }

// graphCosts are the graphmodel layer's standalone numbers.
type graphCosts struct {
	loadMS                     float64
	b1MS, b8MS, b1UnobsMS      float64
	b1Allocs, b1UnobsAllocs    float64
	fastPath                   float64 // 1 when the engine may take the fast path with the server's observers attached
	flopsPerInst, bytesPerInst float64 // computed from the kernels' operand shapes
	samples                    map[string]int
}

// measureGraph loads the served artifacts with graphmodel.Load and times
// Predict at batch 1 and 8 on the served engine with the server's
// observers attached, then detaches them (api.Close) and times batch 1
// again. It also reads the kernel shapes of one observed batch-1 Predict
// from the server's recorder to compute FLOPs and bytes moved.
func measureGraph(s *server, in *inputs, t *tracer) (graphCosts, error) {
	g := graphCosts{samples: map[string]int{}}
	var gm *graphmodel.Model
	loads, err := repeat(3, 3, func() (float64, error) {
		if gm != nil {
			gm.Engine().RunExclusive(gm.Dispose)
		}
		t0 := time.Now()
		m, err := graphmodel.Load(s.store)
		if err != nil {
			return 0, err
		}
		end := time.Now()
		t.layerSpan("graphmodel.Load", t0, end)
		gm = m
		return ms(t0, end), nil
	})
	if err != nil {
		return g, fmt.Errorf("graphmodel.Load: %w", err)
	}
	defer gm.Engine().RunExclusive(gm.Dispose)
	g.loadMS, g.samples["graph.load_ms"] = median(loads), len(loads)

	eng := gm.Engine()
	if err := eng.SetBackend("node"); err != nil {
		return g, err
	}
	x1 := batchTensor(eng, in, 1)
	x8 := batchTensor(eng, in, 8)
	defer eng.RunExclusive(func() { x1.Dispose(); x8.Dispose() })

	predict := func(name string, x *tf.Tensor) func() (float64, error) {
		return func() (float64, error) {
			t0 := time.Now()
			y, err := gm.Predict(x)
			if err != nil {
				return 0, err
			}
			end := time.Now()
			t.layerSpan(name, t0, end)
			eng.RunExclusive(func() { y.Dispose() })
			return ms(t0, end), nil
		}
	}
	// Warm both shapes, then read one observed batch-1 Predict's kernels.
	for _, x := range []*tf.Tensor{x1, x8} {
		if _, err := predict("warm", x)(); err != nil {
			return g, err
		}
	}
	since := time.Now()
	if _, err := predict("graphmodel.Predict.b1", x1)(); err != nil {
		return g, err
	}
	for _, ev := range s.api.Trace().Events(since) {
		if ev.Kind == telemetry.KindKernel && ev.Span == gm.Span() {
			f, b := kernelWork(ev)
			g.flopsPerInst += f
			g.bytesPerInst += b
		}
	}
	g.fastPath = boolMetric(core.Global().FastEligible())

	b1, allocs, err := timedAllocs(predict("graphmodel.Predict.b1", x1))
	if err != nil {
		return g, err
	}
	g.b1MS, g.b1Allocs, g.samples["graph.predict_ms.b1"] = median(b1), allocs, len(b1)
	b8, _, err := timedAllocs(predict("graphmodel.Predict.b8", x8))
	if err != nil {
		return g, err
	}
	g.b8MS, g.samples["graph.predict_ms.b8"] = median(b8), len(b8)

	s.api.Close() // detach the server's observers: the hub goes quiet
	if _, err := predict("warm", x1)(); err != nil {
		return g, err
	}
	un, allocs, err := timedAllocs(predict("graphmodel.Predict.b1.unobserved", x1))
	if err != nil {
		return g, err
	}
	g.b1UnobsMS, g.b1UnobsAllocs, g.samples["graph.predict_ms.b1.unobserved"] = median(un), allocs, len(un)
	return g, nil
}

// timedAllocs repeats fn and reports each call's milliseconds and the
// process heap allocations per call. Nothing between the two counter
// reads allocates but fn.
func timedAllocs(fn func() (float64, error)) ([]float64, float64, error) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	ms, err := repeat(minReps, maxReps, fn)
	if err != nil {
		return nil, 0, err
	}
	metrics.Read(s)
	return ms, float64(s[0].Value.Uint64()-before) / float64(len(ms)), nil
}

// batchTensor stacks the first n pool instances into one [n,96,96,3]
// tensor on eng.
func batchTensor(eng *core.Engine, in *inputs, n int) *tf.Tensor {
	vals := make([]float32, 0, n*inputSize*inputSize*3)
	for i := 0; i < n; i++ {
		vals = append(vals, in.insts[i%len(in.insts)].Values...)
	}
	var x *tf.Tensor
	eng.RunExclusive(func() {
		x = eng.MakeTensor(vals, []int{n, inputSize, inputSize, 3}, tf.Float32)
	})
	return x
}

// kernelWork computes one kernel event's floating-point operations and
// the float32 bytes it reads and writes, from its operand shapes. Conv
// FLOPs count 2 per multiply-add over the filter window; other kernels
// count no FLOPs but do move bytes.
func kernelWork(ev telemetry.Event) (flops, bytes float64) {
	for _, s := range ev.InputShapes {
		bytes += 4 * float64(numel(s))
	}
	for _, s := range ev.OutputShapes {
		bytes += 4 * float64(numel(s))
	}
	if len(ev.InputShapes) < 2 || len(ev.OutputShapes) < 1 {
		return 0, bytes
	}
	x, f, y := ev.InputShapes[0], ev.InputShapes[1], ev.OutputShapes[0]
	switch ev.Name {
	case "FusedConv2D":
		if len(f) == 4 { // [kh, kw, cin, cout]
			flops = 2 * float64(numel(y)) * float64(f[0]*f[1]*f[2])
		}
	case "FusedDepthwiseConv2dNative":
		if len(f) == 4 { // [kh, kw, cin, multiplier]
			flops = 2 * float64(numel(y)) * float64(f[0]*f[1])
		}
	case "_FusedMatMul":
		if len(y) == 2 && y[0] > 0 { // [m, n] = [m, k]·[k, n]
			flops = 2 * float64(numel(y)) * float64(numel(x)/y[0])
		}
	}
	return flops, bytes
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
