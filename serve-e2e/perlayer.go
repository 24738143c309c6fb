package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// perLayerInput is what the traced run hands to the per-layer accounting:
// the live server, the measured window, and the readings taken just
// before the window opened.
type perLayerInput struct {
	srv      *server
	client   *http.Client
	in       *inputs
	tr       *tracer
	load     loadResult
	snap0    serving.Snapshot
	kern0    []telemetry.KernelStat
	pool0    kernels.MemoryInfo
	written0 int
	dropped0 int64
	rt       rtDelta
}

// stageWindow is the number of most recent samples a stage percentile
// covers (the telemetry.Distribution window behind StagePercentiles).
const stageWindow = 512

// setUps fills setup_s and, in a traced run, the set-up layers' metrics:
// medians over the set-up repetitions.
func (r *record) setUps(setups []setupTimes) {
	var total, conv, load, first []float64
	for _, t := range setups {
		total = append(total, t.total)
		conv = append(conv, t.convert)
		load = append(load, t.load)
		first = append(first, 1000*t.firstPredict)
	}
	r.EndToEnd["setup_s"] = metric{median(total), "s", len(total)}
	if r.Traced {
		r.PerLayer["converter.convert_s"] = metric{median(conv), "s", len(conv)}
		r.PerLayer["serving.load_s"] = metric{median(load), "s", len(load)}
		r.PerLayer["serving.first_predict_ms"] = metric{median(first), "ms", len(first)}
	}
}

// Kernels reported by name; every other kernel is summed as "other".
var namedKernels = []string{"FusedConv2D", "FusedDepthwiseConv2dNative", "_FusedMatMul"}

func poolStats() kernels.MemoryInfo { return core.Global().Memory().Backend }

// perLayer fills the per-layer metrics of a traced run.
func (r *record) perLayer(p perLayerInput) error {
	m := map[string]metric{}
	r.PerLayer = m
	srv, lr := p.srv, p.load
	ok, insts := 0, 0
	for _, s := range lr.samples {
		if s.err == nil {
			ok++
			insts += s.insts
		}
	}
	if ok == 0 {
		return fmt.Errorf("traced run completed no correct request")
	}

	// Scheduler and batcher, from the model's own metrics.
	sched := srv.model.Metrics()
	stage := func(name string) (p50, p95 float64) {
		p50, p95, _ = sched.StagePercentiles(name)
		return p50, p95
	}
	qw50, qw95 := stage("queue_wait")
	g50, _ := stage("gather")
	ex50, ex95 := stage("execute")
	sp50, _ := stage("split")
	n := min(insts, stageWindow)
	m["sched.queue_wait_ms.p50"] = metric{qw50, "ms", n}
	m["sched.queue_wait_ms.p95"] = metric{qw95, "ms", n}
	m["sched.gather_ms.p50"] = metric{g50, "ms", n}
	m["sched.execute_ms.p50"] = metric{ex50, "ms", n}
	m["sched.execute_ms.p95"] = metric{ex95, "ms", n}
	m["sched.split_ms.p50"] = metric{sp50, "ms", n}
	snap1 := srv.reg.Snapshots()[modelName]
	var batches, batched int64
	for size, count := range snap1.BatchSizes {
		d := count - p.snap0.BatchSizes[size]
		batches += d
		batched += int64(size) * d
	}
	m["sched.batch_size.mean"] = metric{float64(batched) / float64(batches), "count", int(batches)}
	m["sched.rejected"] = metric{float64(sched.Rejected()), "count", 1}

	// Kernels and dispatches, from the server's Stats aggregator.
	kernMS, dispatches := kernelDeltas(p.kern0, srv.api.Stats().Kernels())
	perInst := func(x float64) float64 { return x / float64(insts) }
	convMS := 0.0
	for _, k := range namedKernels {
		m["kernel."+k+".ms_per_instance"] = metric{perInst(kernMS[k]), "ms", insts}
		convMS += kernMS[k]
		delete(kernMS, k)
	}
	other := 0.0
	for _, v := range kernMS {
		other += v
	}
	m["kernel.other.ms_per_instance"] = metric{perInst(other), "ms", insts}
	m["graph.dispatches_per_instance"] = metric{perInst(float64(dispatches)), "count", insts}

	// Buffer recycler of the served engine.
	pool1 := poolStats()
	hits, misses := pool1.PoolHits-p.pool0.PoolHits, pool1.PoolMisses-p.pool0.PoolMisses
	m["bufpool.hit_ratio"] = metric{float64(hits) / float64(max(1, hits+misses)), "ratio", int(hits + misses)}
	m["bufpool.parked_mb"] = metric{float64(pool1.PoolBytes) / (1 << 20), "MiB", 1}

	// Telemetry: events written, ring overwrites, the scrape.
	rec := srv.api.Trace()
	written := rec.Len() + int(rec.Dropped()) - p.written0
	m["telemetry.events_per_instance"] = metric{perInst(float64(written)), "count", insts}
	dropped := rec.Dropped() - p.dropped0
	m["telemetry.trace_dropped"] = metric{float64(dropped), "count", 1}
	scrapes := lr.scrapes
	if len(scrapes) == 0 {
		// No scrape under load in this workload: scrape the idle server,
		// whose telemetry holds the whole run.
		for i := 0; i < 8; i++ {
			scrapes = append(scrapes, scrapeOnce(p.client, srv.base+"/metrics", nil))
		}
	}
	var scMS, scKB []float64
	for _, s := range scrapes {
		if s.err != nil {
			r.fail(fmt.Errorf("scrape: %w", s.err))
			continue
		}
		scMS = append(scMS, s.ms)
		scKB = append(scKB, float64(s.bytes)/1000)
	}
	m["telemetry.scrape_ms"] = metric{median(scMS), "ms", len(scMS)}
	m["telemetry.scrape_kb"] = metric{median(scKB), "KB", len(scKB)}

	// Go runtime over the window.
	m["gc.cycles_per_100_req"] = metric{100 * p.rt.gcCycles / float64(ok), "count", ok}
	m["gc.pause_p95_ms"] = metric{p.rt.gcPauseP95MS, "ms", int(p.rt.gcCycles)}
	m["gc.cpu_share"] = metric{p.rt.gcCPUShare, "ratio", 1}

	// The traced run's own end-to-end figures; their difference to an
	// untraced run of the same workload is the tracing overhead.
	m["trace.rps"] = r.WallClock["rps"]
	m["trace.latency_p50_ms"] = r.WallClock["latency_p50_ms"]
	m["trace.latency_p95_ms"] = r.WallClock["latency_p95_ms"]
	m["client.overhead_ms_per_req"] = metric{r.GeneratorMS, "ms", len(lr.genMS)}

	// HTTP layer: the joined spans.
	p.tr.mu.Lock()
	accounts := joinAccounts(lr.samples, p.tr.handler, p.tr.events)
	p.tr.mu.Unlock()
	var handler, self, transport []float64
	missing, mismatched := 0, 0
	for _, a := range accounts {
		if a.missing {
			missing++
		}
		if !a.ok {
			continue
		}
		handler = append(handler, a.handler)
		self = append(self, a.self)
		transport = append(transport, a.transport)
	}
	if len(handler) == 0 {
		return fmt.Errorf("no traced request could be joined with its stage events")
	}
	hs := sortedCopy(handler)
	m["http.handler_ms.p50"] = metric{quantile(hs, 0.5), "ms", len(hs)}
	if q, okTail := tailQuantile(len(hs), 0.95); okTail {
		m["http.handler_ms.p95"] = metric{quantile(hs, q), "ms", len(hs)}
	} else {
		m["http.handler_ms.p95"] = metric{math.NaN(), "ms", len(hs)}
	}
	m["http.handler_self_ms.p50"] = metric{median(self), "ms", len(self)}
	m["http.transport_ms.p50"] = metric{median(transport), "ms", len(transport)}
	mismatched = len(accounts) - len(handler) - missing
	m["trace.unaccounted_requests"] = metric{float64(missing + mismatched), "count", len(accounts)}
	if missing > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d of %d traced requests lack their handler span or stage events", missing, len(accounts)))
	}
	if mismatched > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d of %d traced requests do not add up within %.2f ms: a stage reaches outside the handler span",
			mismatched, len(accounts), accountEpsMS))
	}
	if dropped > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("the server's trace recorder overwrote %d events during the window; the benchmark read them back every %v", dropped, pollEvery))
	}

	decMS, encMS, err := codecCosts(p.in)
	if err != nil {
		return fmt.Errorf("timing the HTTP codec: %w", err)
	}
	m["http.decode_ms_per_instance"] = metric{decMS, "ms", len(p.in.bodies)}
	m["http.encode_ms_per_instance"] = metric{encMS, "ms", len(p.in.bodies)}

	g, err := measureGraph(srv, p.in, p.tr)
	if err != nil {
		return fmt.Errorf("timing graphmodel: %w", err)
	}
	m["graph.load_ms"] = metric{g.loadMS, "ms", g.samples["graph.load_ms"]}
	m["graph.predict_ms.b1"] = metric{g.b1MS, "ms", g.samples["graph.predict_ms.b1"]}
	m["graph.predict_ms.b8"] = metric{g.b8MS, "ms", g.samples["graph.predict_ms.b8"]}
	m["graph.predict_ms.b1.unobserved"] = metric{g.b1UnobsMS, "ms", g.samples["graph.predict_ms.b1.unobserved"]}
	m["graph.allocs_per_predict.b1"] = metric{g.b1Allocs, "count", g.samples["graph.predict_ms.b1"]}
	m["graph.allocs_per_predict.b1.unobserved"] = metric{g.b1UnobsAllocs, "count", g.samples["graph.predict_ms.b1.unobserved"]}
	m["graph.fast_path"] = metric{g.fastPath, "count", 1}
	m["kernel.gflop_per_s"] = metric{g.flopsPerInst / (perInst(convMS) * 1e6), "GFLOP/s", insts}
	m["kernel.mb_moved_per_instance"] = metric{g.bytesPerInst / 1e6, "MB", 1}

	data, err := p.tr.chromeTrace(lr.samples)
	if err != nil {
		r.failedCheck = true
		r.Notes = append(r.Notes, "trace artifact invalid: "+err.Error())
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(r.tracePath()), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(r.tracePath(), data, 0o644); err != nil {
		return err
	}
	r.TraceFile = r.tracePath()
	return nil
}

func (r *record) tracePath() string {
	return filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-chrome.json", r.Workload, r.Seed))
}

// kernelDeltas returns, per kernel name, the wall milliseconds spent
// between two Stats snapshots, and the number of dispatches in between.
func kernelDeltas(before, after []telemetry.KernelStat) (map[string]float64, int64) {
	prev := map[string]telemetry.KernelStat{}
	for _, k := range before {
		prev[k.Name] = k
	}
	ms := map[string]float64{}
	var count int64
	for _, k := range after {
		d := k.TotalMS - prev[k.Name].TotalMS
		if c := k.Count - prev[k.Name].Count; c > 0 {
			ms[k.Name] = d
			count += c
		}
	}
	return ms, count
}
