package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit and how many samples it
// summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// host identifies where a run was made; records from different hosts are
// not compared.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func currentHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
	}
}

// sameHost reports why two hosts' results may not be compared, or "".
func sameHost(a, b host) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc differs (%d vs %d)", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs (%d vs %d)", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU model differs (%q vs %q)", a.CPUModel, b.CPUModel)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go version differs (%s vs %s)", a.GoVersion, b.GoVersion)
	case a.OSArch != b.OSArch:
		return fmt.Sprintf("platform differs (%s vs %s)", a.OSArch, b.OSArch)
	}
	return ""
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (it does not outside a git work tree).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// record is one run's full result: the host, the run's settings, every
// metric with its sample count, and the checks' outcomes.
type record struct {
	Host     host              `json:"host"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Traced   bool              `json:"traced"`
	EndToEnd map[string]metric `json:"end_to_end"`
	// WallClock holds the client-side throughput and latency. They are
	// printed and recorded but not gated: on a host whose vCPUs lose a
	// varying share of time to steal they spread too much between runs.
	WallClock map[string]metric `json:"wall_clock"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"` // the first few failures
	Notes     []string          `json:"notes,omitempty"`
	// TailQuantile is the quantile latency_p95_ms was read at: 0.95, or
	// lower when fewer than 10 samples lie beyond p95.
	TailQuantile float64 `json:"tail_quantile"`
	// GeneratorMS is the load generator's own time per request outside
	// the timed round trip (request build, response check).
	GeneratorMS float64 `json:"generator_ms_per_req"`
	// ScrapeP50MS is the median /metrics scrape under load (batch8-scrape).
	ScrapeP50MS float64 `json:"scrape_p50_ms,omitempty"`
	MaxConns    int     `json:"max_open_conns"`
	TraceFile   string  `json:"trace_file,omitempty"`
	failedCheck bool
	outDir      string
}

const maxErrors = 5

func newRecord(cfg config) *record {
	return &record{
		Host: currentHost(), Workload: cfg.workload.name, Seed: cfg.seed,
		Seconds: cfg.seconds, Traced: cfg.trace,
		EndToEnd: map[string]metric{}, WallClock: map[string]metric{},
		outDir: cfg.outDir,
	}
}

func (r *record) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// addLoad counts one load phase's requests and scrapes.
func (r *record) addLoad(lr loadResult) {
	for _, s := range lr.samples {
		r.Attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("request %s: %w", s.id, s.err))
		}
	}
	for _, s := range lr.scrapes {
		r.Attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("scrape: %w", s.err))
		}
	}
}

// checkConns fails the run when the server ever had more connections open
// than the host has CPUs.
func (r *record) checkConns(maxOpen, limit int) {
	r.MaxConns = maxOpen
	if maxOpen > limit {
		r.failedCheck = true
		r.Notes = append(r.Notes, fmt.Sprintf("connection cap broken: %d open at once, cap %d", maxOpen, limit))
	}
}

// endToEnd fills the end-to-end metrics from the measured window.
func (r *record) endToEnd(lr loadResult, rt rtDelta, heapPeakMB float64) {
	var lat []float64
	ok := 0
	for _, s := range lr.samples {
		if s.err != nil {
			lat = append(lat, math.Inf(1)) // a failed request misses any latency limit
			continue
		}
		ok++
		lat = append(lat, s.ms())
	}
	lat = sortedCopy(lat)
	n := len(lat)
	rps, p50, cpu := subWindowMedians(lr)
	r.WallClock["rps"] = metric{rps, "1/s", ok}
	r.WallClock["latency_p50_ms"] = metric{p50, "ms", n}
	if q, okTail := tailQuantile(n, 0.95); okTail {
		r.TailQuantile = q
		r.WallClock["latency_p95_ms"] = metric{quantile(lat, q), "ms", n}
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf("only %d requests: too few for a tail percentile", n))
		r.WallClock["latency_p95_ms"] = metric{math.NaN(), "ms", n}
	}
	per := func(x float64) float64 { return x / float64(ok) }
	r.EndToEnd["cpu_ms_per_req"] = metric{cpu, "ms", ok}
	r.EndToEnd["allocs_per_req"] = metric{per(rt.allocs), "count", ok}
	r.EndToEnd["alloc_bytes_per_req"] = metric{per(rt.allocBytes), "B", ok}
	r.EndToEnd["heap_peak_mb"] = metric{heapPeakMB, "MiB", 1}
	r.GeneratorMS = mean(lr.genMS)
	if len(lr.scrapes) > 0 {
		var ms []float64
		for _, s := range lr.scrapes {
			ms = append(ms, s.ms)
		}
		r.ScrapeP50MS = median(ms)
	}
}

// subWindowMedians computes, for each sub-window between consecutive
// marks, the correct responses per second, the median latency and the
// process CPU per correct response of the requests that ended in it, and
// returns the median of each over the sub-windows. Failed requests count
// as infinitely slow.
func subWindowMedians(lr loadResult) (rps, p50, cpuMS float64) {
	var rs, ps, cs []float64
	for i := 0; i+1 < len(lr.marks); i++ {
		from, to := lr.marks[i], lr.marks[i+1]
		var lat []float64
		for _, s := range lr.samples {
			if s.end.Before(from.at) || !s.end.Before(to.at) {
				continue
			}
			if s.err != nil {
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, s.ms())
		}
		ok := 0
		for _, l := range lat {
			if !math.IsInf(l, 1) {
				ok++
			}
		}
		if ok == 0 {
			rs = append(rs, 0)
			ps = append(ps, math.Inf(1))
			cs = append(cs, math.Inf(1))
			continue
		}
		rs = append(rs, float64(ok)/to.at.Sub(from.at).Seconds())
		ps = append(ps, quantile(sortedCopy(lat), 0.5))
		cs = append(cs, float64(to.cpu-from.cpu)/float64(time.Millisecond)/float64(ok))
	}
	return median(rs), median(ps), median(cs)
}

// MarshalJSON writes a value that is not a finite number as null.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return json.Marshal(struct {
			Value   *float64 `json:"value"`
			Unit    string   `json:"unit"`
			Samples int      `json:"samples"`
		}{nil, m.Unit, m.Samples})
	}
	return json.Marshal(plain(m))
}

// resultValue is a metric as the result line carries it: value and unit.
func (m metric) resultValue() map[string]any {
	return map[string]any{"value": m.Value, "unit": m.Unit}
}

// result is the benchmark's last output line: correct, attempted, failed
// and the mode's declared metrics. A declared metric that is missing,
// has another unit or has no finite value makes the run incorrect and is
// left out.
func (r *record) result() map[string]any {
	ms, want := r.EndToEnd, endToEndMetrics
	if r.Traced {
		ms, want = r.PerLayer, perLayerMetrics
	}
	out := make(map[string]any, len(want))
	correct := r.Failed == 0 && !r.failedCheck && r.Attempted > 0
	for _, d := range want {
		m, ok := ms[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			correct = false
			continue
		}
		out[d.name] = m.resultValue()
	}
	return map[string]any{
		"correct": correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": out,
	}
}

// print writes the human-readable report: the run's settings, every
// metric by name with its unit and sample count, and the checks.
func (r *record) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "serve-e2e %s seed=%d seconds=%d traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s cpu=%q commit=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.CPUModel, h.Commit)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "wall-clock (not gated)", r.WallClock)
	if r.Traced {
		printMetrics(w, "per-layer", r.PerLayer)
	}
	fmt.Fprintf(w, "tail quantile %.4f; generator %.3f ms/req outside the round trip; max open connections %d\n",
		r.TailQuantile, r.GeneratorMS, r.MaxConns)
	if r.ScrapeP50MS > 0 {
		fmt.Fprintf(w, "scrape p50 under load: %.3f ms\n", r.ScrapeP50MS)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	if r.TraceFile != "" {
		fmt.Fprintln(w, "trace:", r.TraceFile)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, name := range sortedNames(ms) {
		m := ms[name]
		fmt.Fprintf(w, "  %-48s %14.6g %-8s (n=%d)\n", name, m.Value, m.Unit, m.Samples)
	}
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// save writes the record as JSON under dir, named by workload, seed and
// mode.
func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, int(boolMetric(r.Traced)))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints two run records side by side. It refuses (exit 1)
// when they come from different hosts or GOMAXPROCS settings; given an
// untraced and a traced record of one workload it also reports the
// tracing overhead on rps and latency_p50_ms.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: serve-e2e compare a.json b.json")
		return 2
	}
	a, err := loadRecord(args[0])
	if err == nil {
		var b *record
		if b, err = loadRecord(args[1]); err == nil {
			return compare(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "serve-e2e compare:", err)
	return 1
}

func compare(w io.Writer, a, b *record) int {
	if why := sameHost(a.Host, b.Host); why != "" {
		fmt.Fprintf(w, "refusing to compare: %s\n", why)
		return 1
	}
	fmt.Fprintf(w, "a: %s seed=%d traced=%v commit=%s\nb: %s seed=%d traced=%v commit=%s\n",
		a.Workload, a.Seed, a.Traced, a.Host.Commit, b.Workload, b.Seed, b.Traced, b.Host.Commit)
	for _, sec := range []struct {
		title string
		a, b  map[string]metric
	}{
		{"end-to-end", a.EndToEnd, b.EndToEnd},
		{"wall-clock", a.WallClock, b.WallClock},
		{"per-layer", a.PerLayer, b.PerLayer},
	} {
		if len(sec.a) == 0 || len(sec.b) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:\n", sec.title)
		for _, name := range sortedNames(sec.a) {
			ma, mb := sec.a[name], sec.b[name]
			if _, ok := sec.b[name]; !ok {
				continue
			}
			fmt.Fprintf(w, "  %-48s %14.6g %14.6g %-8s %+8.2f%%\n", name, ma.Value, mb.Value, ma.Unit, pctChange(ma.Value, mb.Value))
		}
	}
	if a.Workload == b.Workload && a.Traced != b.Traced {
		plain, traced := a, b
		if a.Traced {
			plain, traced = b, a
		}
		fmt.Fprintf(w, "tracing overhead: rps %+.2f%%, latency_p50_ms %+.2f%%\n",
			pctChange(plain.WallClock["rps"].Value, traced.WallClock["rps"].Value),
			pctChange(plain.WallClock["latency_p50_ms"].Value, traced.WallClock["latency_p50_ms"].Value))
	}
	return 0
}

func pctChange(from, to float64) float64 { return 100 * (to - from) / from }
