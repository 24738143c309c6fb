package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// accountEpsMS is the accounting tolerance: for every traced request,
// transport + handler self time + queue_wait + gather + execute + split
// must equal the client-measured latency within this many milliseconds.
const accountEpsMS = 0.05

// The traced run's spans, kept in memory and written out at the end.
const (
	spanClient  = "client"       // request write → full response read
	spanHandler = "http.handler" // the benchmark's wrapper around Server.ServeHTTP
)

// stageNames are the scheduler stages, in order, that together cover a
// request's time inside the model's Predict.
var stageNames = [4]string{"queue_wait", "gather", "execute", "split"}

type span struct {
	start, end time.Time
}

func (s span) ms() float64 { return ms(s.start, s.end) }

// tracer collects the traced run's spans: the handler span per
// X-Request-ID, and the server's request-flow events read back from its
// trace recorder (Server.Trace()) while the run goes on.
type tracer struct {
	mu      sync.Mutex
	handler map[string]span
	events  map[eventKey]telemetry.Event
	layers  []telemetry.Event // standalone layer-call spans

	stop chan struct{}
	wg   sync.WaitGroup
}

type eventKey struct {
	kind  telemetry.EventKind
	name  string
	trace string
	flow  uint64
	start int64
}

func newTracer() *tracer {
	return &tracer{
		handler: map[string]span{},
		events:  map[eventKey]telemetry.Event{},
		// Room for every layer span, so recording one while allocations
		// are being counted does not allocate.
		layers: make([]telemetry.Event, 0, 256),
	}
}

// wrap times every call into the server's handler, keyed by the
// client-sent X-Request-ID.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if id := r.Header.Get("X-Request-ID"); id != "" {
			t.mu.Lock()
			t.handler[id] = span{start, end}
			t.mu.Unlock()
		}
	})
}

// pollEvery and pollLookback size the recorder read-back: every poll
// copies the request-flow events that started within the lookback. An
// event is emitted at most one request latency after it starts, so any
// request faster than lookback-every is read before its events age out;
// the recorder ring itself holds several seconds of events at these rates.
const (
	pollEvery    = 250 * time.Millisecond
	pollLookback = 3 * time.Second
)

// follow starts reading rec's request-flow events in the background.
func (t *tracer) follow(rec *telemetry.Recorder) {
	t.stop = make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				t.poll(rec)
				return
			case <-tick.C:
				t.poll(rec)
			}
		}
	}()
}

// unfollow stops the background reader after one last read.
func (t *tracer) unfollow() {
	close(t.stop)
	t.wg.Wait()
}

func (t *tracer) poll(rec *telemetry.Recorder) {
	evs := rec.Events(time.Now().Add(-pollLookback))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.KindStage, telemetry.KindBatch, telemetry.KindRequest:
			t.events[eventKey{ev.Kind, ev.Name, ev.Trace, ev.FlowID, ev.Start.UnixNano()}] = ev
		}
	}
}

// layerSpan records one standalone layer call as a span.
func (t *tracer) layerSpan(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.layers = append(t.layers, telemetry.Event{
		Kind: telemetry.KindSpan, Name: name, Start: start, DurMS: ms(start, end),
	})
}

// stageSet is one scheduled instance's four stage events.
type stageSet [4]*telemetry.Event

func (s stageSet) complete() bool { return s[0] != nil && s[1] != nil && s[2] != nil && s[3] != nil }

func (s stageSet) end() time.Time {
	return s[3].Start.Add(time.Duration(s[3].DurMS * float64(time.Millisecond)))
}

// account is one traced request broken into its parts, in milliseconds.
type account struct {
	client, handler, transport, self float64
	stages                           [4]float64
	// missing is set when the handler span or a stage event was not
	// found; otherwise ok tells whether the parts add up.
	missing, ok bool
}

// joinAccounts joins each client sample with its handler span and the
// server's stage events on the request ID. A request of several instances
// fans out into one scheduled unit per instance (trace IDs id#0, id#1,
// ...); its stages are those of the instance that finished last, the one
// the response waited for. Self time is the handler span minus the part
// of it the stages cover.
func joinAccounts(samples []sample, handler map[string]span, events map[eventKey]telemetry.Event) []account {
	byTrace := map[string]*stageSet{}
	for _, ev := range events {
		if ev.Kind != telemetry.KindStage {
			continue
		}
		i := stageIndex(ev.Name)
		if i < 0 {
			continue
		}
		set := byTrace[ev.Trace]
		if set == nil {
			set = &stageSet{}
			byTrace[ev.Trace] = set
		}
		e := ev
		set[i] = &e
	}
	out := make([]account, 0, len(samples))
	for _, sm := range samples {
		a := account{client: sm.ms()}
		h, hok := handler[sm.id]
		var crit *stageSet
		complete := hok
		for j := 0; j < sm.insts && complete; j++ {
			trace := sm.id
			if sm.insts > 1 {
				trace = fmt.Sprintf("%s#%d", sm.id, j)
			}
			set := byTrace[trace]
			if set == nil || !set.complete() {
				complete = false
				break
			}
			if crit == nil || set.end().After(crit.end()) {
				crit = set
			}
		}
		if !complete {
			a.missing = true
			out = append(out, a)
			continue
		}
		a.handler = h.ms()
		a.transport = a.client - a.handler
		covered, sum := 0.0, 0.0
		for i, ev := range crit {
			a.stages[i] = ev.DurMS
			sum += ev.DurMS
			covered += overlapMS(h, ev.Start, ev.DurMS)
		}
		a.self = a.handler - covered
		total := a.transport + a.self + sum
		a.ok = total-a.client <= accountEpsMS && a.client-total <= accountEpsMS
		out = append(out, a)
	}
	return out
}

func stageIndex(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	return -1
}

// overlapMS is the part of [start, start+dur] inside s, in milliseconds.
func overlapMS(s span, start time.Time, durMS float64) float64 {
	end := start.Add(time.Duration(durMS * float64(time.Millisecond)))
	if start.Before(s.start) {
		start = s.start
	}
	if end.After(s.end) {
		end = s.end
	}
	if !end.After(start) {
		return 0
	}
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

// chromeTrace renders the traced run as Chrome trace-event JSON: the
// server's request-flow events, each client and handler span (named by
// kind, with the request ID as its span label) and the standalone layer
// calls. The result is checked with telemetry.ValidateChromeTrace.
func (t *tracer) chromeTrace(samples []sample) ([]byte, error) {
	t.mu.Lock()
	evs := make([]telemetry.Event, 0, len(t.events)+2*len(samples)+len(t.layers))
	for _, ev := range t.events {
		evs = append(evs, ev)
	}
	for _, sm := range samples {
		evs = append(evs, telemetry.Event{Kind: telemetry.KindSpan, Name: spanClient, Span: sm.id, Start: sm.start, DurMS: sm.ms()})
		if h, ok := t.handler[sm.id]; ok {
			evs = append(evs, telemetry.Event{Kind: telemetry.KindSpan, Name: spanHandler, Span: sm.id, Start: h.start, DurMS: h.ms()})
		}
	}
	evs = append(evs, t.layers...)
	t.mu.Unlock()
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, evs); err != nil {
		return nil, err
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
