package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestTailQuantilePicksHighestWithTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // index/(n-1) of the reported sample
		ok   bool
	}{
		{n: 1000, want: 949.0 / 999, ok: true}, // p95 leaves 50 beyond
		{n: 201, want: 190.0 / 200, ok: true},  // p95 leaves exactly 10 beyond
		{n: 200, want: 189.0 / 199, ok: true},  // p95 would leave 9: step down to 10 beyond
		{n: 60, want: 49.0 / 59, ok: true},
		{n: 11, want: 0, ok: true},
		{n: 10, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n, 0.95)
		if ok != c.ok || (ok && q != c.want) {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
			continue
		}
		if !ok {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, q)
		if beyond := c.n - 1 - int(v); beyond < minTail {
			t.Errorf("n=%d: %d samples beyond the tail value, want at least %d", c.n, beyond, minTail)
		}
		if c.n*5/100 >= minTail && v != xs[int(0.95*float64(c.n-1))] {
			t.Errorf("n=%d: tail value %v is not p95 although p95 has enough samples beyond", c.n, v)
		}
	}
}

func TestCheckResponseCatchesPerturbation(t *testing.T) {
	refs := [][]float32{make([]float32, 4), make([]float32, 4)}
	for i := range refs {
		for k := range refs[i] {
			refs[i][k] = float32(i+1) * 0.1 * float32(k+1)
		}
	}
	bd := body{insts: []int{1, 0}}
	respond := func(mut func(p [][]float64)) []byte {
		p := make([][]float64, len(bd.insts))
		for j, idx := range bd.insts {
			for _, v := range refs[idx] {
				p[j] = append(p[j], float64(v))
			}
		}
		if mut != nil {
			mut(p)
		}
		data, err := json.Marshal(predictResponse{Predictions: p})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := checkResponse(respond(nil), bd, refs); err != nil {
		t.Fatalf("exact response rejected: %v", err)
	}
	// Fixed perturbations, not ones derived from the tolerance constants,
	// so loosening the stated tolerance fails the test.
	within := func(p [][]float64) { p[0][2] *= 1 + 5e-5 }
	if err := checkResponse(respond(within), bd, refs); err != nil {
		t.Fatalf("response within tolerance rejected: %v", err)
	}
	bad := map[string]func(p [][]float64){
		"perturbed class": func(p [][]float64) { p[1][3] *= 1 + 1e-3 },
		"swapped order":   func(p [][]float64) { p[0], p[1] = p[1], p[0] },
		"missing class":   func(p [][]float64) { p[0] = p[0][:3] },
		"missing instance": func(p [][]float64) {
			p[1] = nil
		},
	}
	for name, mut := range bad {
		if err := checkResponse(respond(mut), bd, refs); err == nil {
			t.Errorf("%s: response accepted", name)
		}
	}
	if err := checkResponse([]byte(`{"predictions": [[0.1, `), bd, refs); err == nil {
		t.Error("truncated response accepted")
	}
}

// TestConnectionCap checks both halves of the cap: the client never opens
// more than its limit however many requests are in flight, and the
// server-side tracker flags a server that saw more.
func TestConnectionCap(t *testing.T) {
	conns := &connTracker{}
	const requests = 6
	arrived := make(chan struct{}, requests) // one send per request, never blocks
	release := make(chan struct{})
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			arrived <- struct{}{}
			<-release
			io.WriteString(w, "ok")
		}),
		ConnState: conns.observe,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	url := "http://" + ln.Addr().String()

	const limit = 2
	client := newClient(limit)
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(url)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	// Hold the first limit requests in the handler, so the others queue
	// for a connection, then let all of them through.
	for i := 0; i < limit; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	capped := &record{}
	capped.checkConns(conns.maxOpen(), limit)
	if capped.failedCheck {
		t.Fatalf("capped client: %v", capped.Notes)
	}

	// Once the client's connections are gone, limit+1 raw connections held
	// open at once break the cap.
	client.CloseIdleConnections()
	open := func() int {
		conns.mu.Lock()
		defer conns.mu.Unlock()
		return conns.open
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("the client's connections to close", func() bool { return open() == 0 })
	var raw []net.Conn
	for i := 0; i < limit+1; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, c)
	}
	waitFor("the raw connections to open", func() bool { return open() == limit+1 })
	for _, c := range raw {
		c.Close()
	}
	if m := conns.maxOpen(); m != limit+1 {
		t.Fatalf("tracker saw at most %d connections open, want %d", m, limit+1)
	}
	over := &record{}
	over.checkConns(conns.maxOpen(), limit)
	if !over.failedCheck {
		t.Fatalf("%d open connections passed a cap of %d", limit+1, limit)
	}
}

// TestJoinAccounts joins client samples, handler spans and stage events of
// a synthetic run: a request whose parts add up, one whose split reaches
// past the handler, one with a stage event missing, and a fanned-out
// request whose accounting follows the instance that finished last.
func TestJoinAccounts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	events := map[eventKey]telemetry.Event{}
	stages := func(trace string, enq float64, durs [4]float64) {
		start := enq
		for i, d := range durs {
			ev := telemetry.Event{Kind: telemetry.KindStage, Name: stageNames[i], Trace: trace, Start: at(start), DurMS: d}
			events[eventKey{ev.Kind, ev.Name, ev.Trace, 0, ev.Start.UnixNano()}] = ev
			start += d
		}
	}
	handler := map[string]span{}
	var samples []sample
	add := func(id string, insts int, c0, h0, h1, c1 float64) {
		samples = append(samples, sample{id: id, start: at(c0), end: at(c1), insts: insts})
		handler[id] = span{at(h0), at(h1)}
	}

	add("good", 1, 0, 1, 30, 31)
	stages("good", 5, [4]float64{2, 2, 10, 1}) // covers 5..20 of handler 1..30
	add("late-split", 1, 100, 101, 120, 121)
	stages("late-split", 105, [4]float64{1, 2, 10, 4}) // split ends at 122, past the handler
	add("missing", 1, 200, 201, 230, 231)
	stages("missing", 205, [4]float64{1, 2, 10, 1})
	for k, ev := range events {
		if ev.Trace == "missing" && ev.Name == "gather" {
			delete(events, k)
		}
	}
	add("fan", 2, 300, 301, 360, 361)
	stages("fan#0", 305, [4]float64{1, 2, 20, 1}) // ends at 329
	stages("fan#1", 305, [4]float64{3, 2, 30, 2}) // ends at 342: the critical one

	accounts := joinAccounts(samples, handler, events)
	if len(accounts) != 4 {
		t.Fatalf("%d accounts for 4 samples", len(accounts))
	}
	near := func(a, b float64) bool { return a-b < 1e-6 && b-a < 1e-6 }
	good := accounts[0]
	if !good.ok || good.missing || !near(good.handler, 29) || !near(good.transport, 2) || !near(good.self, 14) {
		t.Errorf("good: %+v, want ok with handler 29, transport 2, self 14", good)
	}
	if late := accounts[1]; late.ok || late.missing {
		t.Errorf("late-split: %+v, want a failed accounting check", late)
	}
	if miss := accounts[2]; miss.ok || !miss.missing {
		t.Errorf("missing: %+v, want flagged missing", miss)
	}
	fan := accounts[3]
	if !fan.ok || fan.stages != [4]float64{3, 2, 30, 2} || !near(fan.self, 59-37) {
		t.Errorf("fan: %+v, want ok with fan#1's stages and self 22", fan)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := &record{Host: currentHost(), Workload: "json-small", WallClock: map[string]metric{"rps": {Value: 50, Unit: "1/s"}}}
	b := *a
	b.Host.GOMAXPROCS++
	var out strings.Builder
	if code := compare(&out, a, &b); code == 0 || !strings.Contains(out.String(), "GOMAXPROCS") {
		t.Fatalf("compare across GOMAXPROCS: exit %d, output %q", code, out.String())
	}
	c := *a
	c.Traced = true
	c.WallClock = map[string]metric{"rps": {Value: 45, Unit: "1/s"}, "latency_p50_ms": {Value: 40, Unit: "ms"}}
	a.WallClock["latency_p50_ms"] = metric{Value: 36, Unit: "ms"}
	out.Reset()
	if code := compare(&out, a, &c); code != 0 || !strings.Contains(out.String(), fmt.Sprintf("rps %+.2f%%", -10.0)) {
		t.Fatalf("compare untraced vs traced: exit %d, output %q", code, out.String())
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		spec []struct{ Name, Unit string }
		code []declared
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", c.key, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.key, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
