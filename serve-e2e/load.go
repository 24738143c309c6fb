package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// sample is one predict request as the client saw it.
type sample struct {
	id         string
	start, end time.Time // request write → full response read
	insts      int
	err        error // transport error, non-200, or a wrong prediction
}

func (s sample) ms() float64 { return ms(s.start, s.end) }

// scrape is one GET /metrics as the client saw it.
type scrape struct {
	ms    float64
	bytes int
	err   error
}

// loadResult is everything one closed-loop phase produced.
type loadResult struct {
	samples []sample
	scrapes []scrape
	// genMS is the generator's own time per request outside the timed
	// round trip: building the request and checking the response.
	genMS []float64
	// marks are the sub-window boundaries of a measured window.
	marks []mark
}

// runLoad drives the workload's closed loop against s for d: each of
// w.conns connections sends its next pre-encoded body only after reading
// and checking the previous response; with w.scrape set, one more
// connection scrapes /metrics at that interval. Request IDs are
// prefix-conn-seq.
func runLoad(s *server, client *http.Client, in *inputs, w workload, d time.Duration, prefix string) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	url := s.predictURL()
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var samples []sample
			var gen []float64
			var buf bytes.Buffer
			next := c * len(in.bodies) / w.conns
			for seq := 0; time.Now().Before(deadline); seq++ {
				genStart := time.Now()
				bd := in.bodies[next%len(in.bodies)]
				next++
				sm := sample{id: fmt.Sprintf("%s-%d-%d", prefix, c, seq), insts: len(bd.insts)}
				sm.start = time.Now()
				data, status, err := post(client, url, bd.data, sm.id, &buf)
				sm.end = time.Now()
				switch {
				case err != nil:
					sm.err = err
				case status != http.StatusOK:
					sm.err = fmt.Errorf("status %d: %.200s", status, data)
				default:
					sm.err = checkResponse(data, bd, in.refs)
				}
				samples = append(samples, sm)
				gen = append(gen, float64(sm.start.Sub(genStart)+time.Since(sm.end))/float64(time.Millisecond))
			}
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.genMS = append(res.genMS, gen...)
			mu.Unlock()
		}(c)
	}
	if w.scrape > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scrapes := scrapeLoop(client, s.base+"/metrics", w.scrape, deadline)
			mu.Lock()
			res.scrapes = scrapes
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// scrapeLoop GETs /metrics every interval until deadline, checking each
// body with the strict exposition parser.
func scrapeLoop(client *http.Client, url string, every time.Duration, deadline time.Time) []scrape {
	var out []scrape
	var buf bytes.Buffer
	t := time.NewTicker(every)
	defer t.Stop()
	for now := range t.C {
		if !now.Before(deadline) {
			return out
		}
		out = append(out, scrapeOnce(client, url, &buf))
	}
	return out
}

// scrapeOnce times one GET /metrics and checks that the body parses and
// carries the model's request counter.
func scrapeOnce(client *http.Client, url string, buf *bytes.Buffer) scrape {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return scrape{err: err}
	}
	// Negotiate OpenMetrics, as a Prometheus scraper does.
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	start := time.Now()
	data, status, err := do(client, req, buf)
	sc := scrape{ms: ms(start, time.Now()), bytes: len(data), err: err}
	if err != nil {
		return sc
	}
	if status != http.StatusOK {
		sc.err = fmt.Errorf("/metrics status %d", status)
		return sc
	}
	p, err := telemetry.ParseExposition(string(data))
	if err != nil {
		sc.err = fmt.Errorf("/metrics does not parse: %w", err)
		return sc
	}
	if _, ok := p.Value("serving_requests_total", map[string]string{"model": modelName, "outcome": "ok"}); !ok {
		sc.err = fmt.Errorf("/metrics lacks serving_requests_total for %s", modelName)
	}
	return sc
}
