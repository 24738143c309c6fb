// Command tfjs-serve serves converted models over a KServe-V1-style HTTP
// API with dynamic micro-batching — the server-side deployment story the
// paper sketches for the "node" backend (§4.2, §7).
//
//	tfjs-serve -model mnist=./artifacts/mnist -model mobilenet=./m:webgl
//	tfjs-serve -demo -replicas 4
//
// Each -model flag names a model (optionally "name@version" for
// versioned rollout) and points it at a converted artifact directory
// (the output of tfjs-convert), optionally suffixed with ":backend"
// (cpu, webgl, node; default node). -demo synthesizes a MobileNet v1
// α=0.25 model in memory and serves it as "mobilenet" so the API can be
// exercised without artifacts on disk:
//
//	curl localhost:8500/v1/models
//	curl localhost:8500/v1/models/mobilenet
//	curl -d '{"instances": [[...]]}' localhost:8500/v1/models/mobilenet:predict
//	curl localhost:8500/metrics
//
// -replicas N loads N independent engine replicas per graph model, so
// concurrent batches execute in parallel (set GOMAXPROCS ≥ N to realize
// the speedup). -tenant id=weight (repeatable) enables weighted-fair
// admission control keyed on the X-Tenant-ID header. -graph name=file
// registers an inference graph from a JSON GraphSpec. Versioned models
// roll out via POST /v1/models/{base}:promote|:canary|:shadow|:evict.
//
// -cost-model measured switches the parallelism grain from static flop
// estimates to the continuous profiler's measured ns/element feedback.
// -debug-addr localhost:6060 exposes net/http/pprof on a second,
// typically loopback-only listener kept off the serving address.
//
// On SIGTERM/SIGINT the server drains gracefully: /readyz flips to 503,
// new predicts are refused, in-flight requests get -drain-timeout to
// finish, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/converter"
	"repro/internal/serving"
	"repro/tf"
)

// modelFlags accumulates repeated -model name=dir[:backend] flags.
type modelFlags []modelSpec

type modelSpec struct {
	name    string
	dir     string
	backend string
}

func (f *modelFlags) String() string { return fmt.Sprint(*f) }

func (f *modelFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=dir[:backend], got %q", v)
	}
	spec := modelSpec{name: name, dir: rest}
	if dir, backend, ok := strings.Cut(rest, ":"); ok {
		spec.dir, spec.backend = dir, backend
	}
	*f = append(*f, spec)
	return nil
}

// tenantFlags accumulates repeated -tenant id=weight flags.
type tenantFlags map[string]int

func (f *tenantFlags) String() string { return fmt.Sprint(*f) }

func (f *tenantFlags) Set(v string) error {
	id, weight, ok := strings.Cut(v, "=")
	if !ok || id == "" {
		return fmt.Errorf("want id=weight, got %q", v)
	}
	w, err := strconv.Atoi(weight)
	if err != nil || w < 1 {
		return fmt.Errorf("bad tenant weight %q", weight)
	}
	if *f == nil {
		*f = tenantFlags{}
	}
	(*f)[id] = w
	return nil
}

// graphFlags accumulates repeated -graph name=specfile flags.
type graphFlags []graphSpecFile

type graphSpecFile struct {
	name string
	path string
}

func (f *graphFlags) String() string { return fmt.Sprint(*f) }

func (f *graphFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=specfile.json, got %q", v)
	}
	*f = append(*f, graphSpecFile{name: name, path: path})
	return nil
}

func main() {
	var models modelFlags
	var tenants tenantFlags
	var graphs graphFlags
	flag.Var(&models, "model", "serve a model: name[@version]=dir[:backend] (repeatable)")
	flag.Var(&tenants, "tenant", "weighted-fair admission: id=weight (repeatable; enables X-Tenant-ID quotas)")
	flag.Var(&graphs, "graph", "register an inference graph: name=specfile.json (repeatable)")
	addr := flag.String("addr", ":8500", "listen address")
	maxBatch := flag.Int("max-batch", 16, "micro-batcher: max examples per batch")
	batchTimeout := flag.Duration("batch-timeout", 2*time.Millisecond, "micro-batcher: max wait after first request")
	queueSize := flag.Int("queue-size", 128, "scheduler: bounded queue size (overflow → 429)")
	workers := flag.Int("workers", 1, "scheduler: workers per model (raised to -replicas when lower)")
	replicas := flag.Int("replicas", 1, "engine replicas per graph model (parallel batch execution)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "server-side request deadline")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown: max wait for in-flight requests")
	demo := flag.Bool("demo", false, "serve a synthetic in-memory MobileNet v1 α=0.25 as \"mobilenet\"")
	costModel := flag.String("cost-model", "static", "parallelism cost source: static (plan flop estimates) or measured (continuous profiler feedback)")
	debugAddr := flag.String("debug-addr", "", "optional second listen address exposing net/http/pprof (e.g. localhost:6060); empty disables")
	flag.Parse()

	cm := tf.CostModel(*costModel)
	if cm != tf.CostModelStatic && cm != tf.CostModelMeasured {
		fmt.Fprintf(os.Stderr, "bad -cost-model %q: want static or measured\n", *costModel)
		os.Exit(2)
	}

	if len(models) == 0 && !*demo {
		fmt.Fprintln(os.Stderr, "nothing to serve: pass -model name=dir[:backend] or -demo")
		flag.Usage()
		os.Exit(2)
	}

	cfg := serving.Config{
		MaxBatchSize:   *maxBatch,
		BatchTimeout:   *batchTimeout,
		QueueSize:      *queueSize,
		Workers:        *workers,
		RequestTimeout: *reqTimeout,
	}
	opts := serving.ModelOptions{
		Batching: cfg,
		Replicas: *replicas,
		Tenants:  tenants,
		Exec:     []tf.ExecOption{tf.WithCostModel(cm)},
	}
	reg := serving.NewRegistry()
	defer reg.Close()

	if *demo {
		store, err := demoStore()
		if err != nil {
			log.Fatalf("building demo model: %v", err)
		}
		if _, err := reg.Load("mobilenet", store, opts); err != nil {
			log.Fatal(err)
		}
		log.Printf("loading model %q (demo MobileNet v1 α=0.25, input 96x96x3) on backend node, %d replica(s)",
			"mobilenet", *replicas)
	}
	for _, spec := range models {
		specOpts := opts
		specOpts.Backend = spec.backend
		if _, err := reg.Load(spec.name, converter.FSStore{Dir: spec.dir}, specOpts); err != nil {
			log.Fatal(err)
		}
		backend := spec.backend
		if backend == "" {
			backend = "node"
		}
		log.Printf("loading model %q from %s on backend %s, %d replica(s)",
			spec.name, spec.dir, backend, *replicas)
	}

	api := serving.NewServer(reg)
	defer api.Close()
	for _, g := range graphs {
		data, err := os.ReadFile(g.path)
		if err != nil {
			log.Fatalf("reading graph spec %s: %v", g.path, err)
		}
		var spec serving.GraphSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			log.Fatalf("parsing graph spec %s: %v", g.path, err)
		}
		spec.Name = g.name
		if err := api.RegisterGraph(spec); err != nil {
			log.Fatalf("registering graph %q: %v", g.name, err)
		}
		log.Printf("registered inference graph %q from %s", g.name, g.path)
	}

	if *debugAddr != "" {
		// pprof lives on its own mux and listener so profiling endpoints
		// are never reachable through the serving address — opt-in and
		// bindable to localhost while the API faces the network.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	srv := newAPIServer(*addr, api)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("serving on %s (batch ≤%d, timeout %v, queue %d, %d worker(s), %d replica(s))",
		*addr, cfg.MaxBatchSize, cfg.BatchTimeout, cfg.QueueSize, cfg.Workers, *replicas)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		// Graceful drain: readiness flips first so load balancers stop
		// routing here, new predicts 503, in-flight requests finish, then
		// the listener closes and models unload.
		log.Printf("%v: draining (max %v)", sig, *drainTimeout)
		api.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("drained; unloading models")
	}
}

// Connection timeouts of the API listener: a slow header and an idle
// keep-alive connection. A predict body is decoded as it streams in, so a
// client trickling it holds a handler; the serving handlers bound that
// with a read deadline of their own around the body read, which leaves
// -request-timeout to mean one thing, the model-side deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newAPIServer builds the API listener's server with its slow-client
// bounds set.
func newAPIServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// demoStore converts a synthetic MobileNet into an in-memory artifact
// store, exercising the full tfjs-convert pipeline.
func demoStore() (converter.Store, error) {
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: 10, IncludeTop: true, Seed: 42,
	})
	if err != nil {
		return nil, err
	}
	defer model.Dispose()
	g, err := tf.ExportSavedModel(model, false)
	if err != nil {
		return nil, err
	}
	store := converter.NewMemStore()
	if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
		return nil, err
	}
	return store, nil
}
