// Command serve-e2e is the repository's benchmark: it measures one
// tfjs-serve request over HTTP, from request bytes in to response bytes
// out, on the production path (serving.NewServer with its Recorder, Stats
// and Profiler observers attached) with the load generator in the same
// process.
//
//	bash serve-e2e/run.sh --workload json-small --seed 1 --seconds 30 --trace 0
//	bash serve-e2e/run.sh compare a.json b.json
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps the server's handler, reads the server's telemetry back and makes
// standalone calls into each layer, and reports the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Run shape: set-up repetitions (setup_s is their median; setupsBefore of
// them precede the load, the rest follow it) and the warm-up before the
// measured window, which fills the kernels' weight-panel and buffer caches.
const (
	setupReps    = 11
	setupsBefore = 6
	warmup       = 2 * time.Second
	// subWindows splits the measured window: rps, latency_p50_ms and
	// cpu_ms_per_req are medians over the sub-windows, so a few slow
	// seconds on a shared host move them less.
	subWindows = 6
)

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "json-small, json-heavy or batch8-scrape")
		seed    = flag.Int64("seed", 1, "seed for the instance pool and request bodies")
		seconds = flag.Int("seconds", 30, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		outDir  = flag.String("out-dir", filepath.Join(".bench_build", "serve-e2e"), "where the run record and trace are written")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve-e2e:", err)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve-e2e:", err)
		os.Exit(1)
	}
	rec.print(os.Stdout)
	if err := rec.save(cfg.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "serve-e2e: writing run record:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve-e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its record.
func run(cfg config) (*record, error) {
	w := cfg.workload
	rec := newRecord(cfg)
	nproc := runtime.NumCPU()
	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	client := newClient(nproc)
	defer client.CloseIdleConnections()

	var tr *tracer
	var wrap func(h http.Handler) http.Handler
	if cfg.trace {
		tr = newTracer()
		wrap = tr.wrap
	}

	// Set up setupsBefore times and keep the last server for the load;
	// set up the rest after the load, so the median spans the whole run.
	var setups []setupTimes
	maxConns := 0
	setUpAndClose := func(n int) error {
		for i := 0; i < n; i++ {
			s, t, err := setUp(in, client, wrap)
			if err != nil {
				return fmt.Errorf("set-up %d: %w", len(setups)+1, err)
			}
			setups = append(setups, t)
			client.CloseIdleConnections()
			if err := s.close(); err != nil {
				return fmt.Errorf("closing set-up %d: %w", len(setups), err)
			}
			maxConns = max(maxConns, s.conns.maxOpen())
		}
		return nil
	}
	if err := setUpAndClose(setupsBefore - 1); err != nil {
		return nil, err
	}
	srv, t, err := setUp(in, client, wrap)
	if err != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(setups)+1, err)
	}
	setups = append(setups, t)
	closed := false
	defer func() {
		if closed {
			return
		}
		if err := srv.close(); err != nil {
			fmt.Fprintln(os.Stderr, "serve-e2e: closing server:", err)
		}
	}()

	warm := runLoad(srv, client, in, w, warmup, "warm")
	rec.addLoad(warm)

	snap0 := srv.reg.Snapshots()[modelName]
	kern0 := srv.api.Stats().Kernels()
	pool0 := poolStats()
	trace := srv.api.Trace()
	written0, dropped0 := trace.Len()+int(trace.Dropped()), trace.Dropped()
	if tr != nil {
		tr.follow(trace)
	}
	heap := startHeapSampler(50 * time.Millisecond)
	rt0 := readRuntime()
	window := time.Duration(cfg.seconds) * time.Second
	marks := markWindows(window, subWindows)
	lr := runLoad(srv, client, in, w, window, "run")
	lr.marks = marks()
	rt := runtimeDelta(rt0, readRuntime())
	heapPeak := heap.finish()
	if tr != nil {
		tr.unfollow()
	}
	rec.addLoad(lr)
	rec.endToEnd(lr, rt, heapPeak)

	if cfg.trace {
		if err := rec.perLayer(perLayerInput{
			srv: srv, client: client, in: in, tr: tr, load: lr,
			snap0: snap0, kern0: kern0, pool0: pool0,
			written0: written0, dropped0: dropped0,
			rt: rt,
		}); err != nil {
			return nil, err
		}
	}

	client.CloseIdleConnections()
	closed = true
	if err := srv.close(); err != nil {
		return nil, fmt.Errorf("closing server: %w", err)
	}
	maxConns = max(maxConns, srv.conns.maxOpen())
	if err := setUpAndClose(setupReps - setupsBefore); err != nil {
		return nil, err
	}
	rec.setUps(setups)
	rec.checkConns(maxConns, nproc)
	return rec, nil
}
