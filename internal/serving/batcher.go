package serving

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// request is one queued single-example prediction.
type request struct {
	ctx  context.Context
	inst Instance
	resp chan response // buffered(1): workers never block on delivery

	// Tracing state. trace is the request/trace ID from the context (or
	// generated); flow is the numeric Chrome flow-event ID linking this
	// request's span to the batched execution it joins (0 when the
	// telemetry hub has no observers). enqueued/dequeued bound the
	// queue-wait stage and are recorded unconditionally — they also feed
	// the stage-latency histograms in /metrics.
	trace    string
	flow     uint64
	enqueued time.Time
	dequeued time.Time
}

// response carries the per-example result back to the submitter.
type response struct {
	inst Instance
	err  error
}

// scheduler owns one model's bounded request queue, worker pool and
// dynamic micro-batcher. Submissions beyond QueueSize fail fast with
// ErrQueueFull (backpressure, 429); each worker coalesces up to
// MaxBatchSize queued requests, waiting at most BatchTimeout after the
// first arrival, and executes them as one batch.
//
// Every request is traced through four stages — queue_wait, gather,
// execute, split — with per-stage latency histograms; when the telemetry
// hub has observers, each stage also emits an Event tagged with the
// request's trace ID, and Chrome flow events link the N coalesced
// request spans into the one batch slice that served them.
type scheduler struct {
	cfg     Config
	model   string
	run     runner
	est     costEstimator // run's measured-latency view; nil when unsupported
	metrics *Metrics
	hub     *telemetry.Hub

	queue chan *request
	stop  chan struct{}
	wg    sync.WaitGroup

	closeOnce sync.Once
}

// newScheduler starts the worker pool. The model name labels batch spans
// and stage events. Runners that can report a measured per-execution
// latency (graph runners, replica pools) are detected here and feed the
// Retry-After hint before the execute-stage histogram has samples.
func newScheduler(cfg Config, model string, run runner, metrics *Metrics) *scheduler {
	s := &scheduler{
		cfg:     cfg,
		model:   model,
		run:     run,
		metrics: metrics,
		hub:     core.Global().Telemetry(),
		queue:   make(chan *request, cfg.QueueSize),
		stop:    make(chan struct{}),
	}
	if est, ok := run.(costEstimator); ok {
		s.est = est
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// retryAfter computes the backoff hint for a shed request, folding in the
// runner's measured execution latency when available.
func (s *scheduler) retryAfter() time.Duration {
	estMS := 0.0
	if s.est != nil {
		estMS = s.est.estimateExecMS()
	}
	return retryAfterHint(s.metrics, len(s.queue), s.cfg.MaxBatchSize, estMS)
}

// Close stops the workers and waits for in-flight batches to finish.
func (s *scheduler) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// QueueDepth samples the number of pending requests.
func (s *scheduler) QueueDepth() int { return len(s.queue) }

// Submit enqueues one example and blocks until its result, the context's
// deadline, or shutdown. The request's deadline is capped server-side at
// RequestTimeout.
func (s *scheduler) Submit(ctx context.Context, inst Instance) (Instance, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	req := &request{ctx: ctx, inst: inst, resp: make(chan response, 1), enqueued: time.Now()}
	if s.hub.Active() {
		req.trace = RequestID(ctx)
		if req.trace == "" {
			req.trace = generateRequestID()
		}
		req.flow = nextID()
	}
	select {
	case s.queue <- req:
	default:
		s.metrics.ObserveRejected()
		// ShedError unwraps to ErrQueueFull, so errors.Is callers see the
		// same contract as before; the wrapper adds the Retry-After hint.
		return Instance{}, &ShedError{
			Reason:     "queue_full",
			RetryAfter: s.retryAfter(),
		}
	}
	select {
	case r := <-req.resp:
		return r.inst, r.err
	case <-ctx.Done():
		return Instance{}, ctx.Err()
	case <-s.stop:
		return Instance{}, ErrShuttingDown
	}
}

// worker drains the queue: block for the first request, coalesce a batch,
// execute, deliver.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.queue:
			s.execute(s.gather(first))
		}
	}
}

// admit stamps a pulled request's dequeue time unless its context already
// expired — an abandoned submitter is answered immediately (it has
// already gone away) instead of consuming a batch slot, so a slow client
// cannot shrink the effective batch for everyone else.
func (s *scheduler) admit(batch []*request, r *request) []*request {
	if err := r.ctx.Err(); err != nil {
		r.resp <- response{err: err}
		return batch
	}
	r.dequeued = time.Now()
	return append(batch, r)
}

// gather coalesces queued requests behind first into a batch: up to
// MaxBatchSize, waiting at most BatchTimeout past the first arrival.
// Requests whose context expired while queued are dropped at admission,
// so the returned batch may be smaller than what was pulled — or empty.
func (s *scheduler) gather(first *request) []*request {
	batch := s.admit(nil, first)
	if s.cfg.MaxBatchSize <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.BatchTimeout)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatchSize {
		select {
		case r := <-s.queue:
			batch = s.admit(batch, r)
		case <-timer.C:
			return batch
		case <-s.stop:
			return batch
		}
	}
	return batch
}

// execute groups the batch by instance shape (only same-shaped examples
// can share a Concat) and runs each group as one batched execution.
func (s *scheduler) execute(batch []*request) {
	groups := map[string][]*request{}
	var order []string
	for _, r := range batch {
		key := r.inst.shapeKey()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	for _, key := range order {
		s.runGroup(groups[key])
	}
}

// runGroup executes one same-shaped group as a single batched call and
// delivers per-request results, recording stage latencies and — when the
// hub is observed — the trace events that render the fan-in.
func (s *scheduler) runGroup(group []*request) {
	execStart := time.Now()
	observed := s.hub.Active()

	// Stage histograms are always recorded (two time.Now() calls per
	// request beyond what delivery needs); events only when observed.
	for _, r := range group {
		queueMS := durMS(r.enqueued, r.dequeued)
		gatherMS := durMS(r.dequeued, execStart)
		s.metrics.ObserveStage("queue_wait", queueMS)
		s.metrics.ObserveStage("gather", gatherMS)
		if observed {
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindStage, Name: "queue_wait", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: r.enqueued, DurMS: queueMS,
			})
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindStage, Name: "gather", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: r.dequeued, DurMS: gatherMS,
			})
		}
	}

	insts := make([]Instance, len(group))
	for i, r := range group {
		insts[i] = r.inst
	}
	s.metrics.ObserveBatch(len(group))
	outs, err := s.run.run(insts)
	if err == nil && len(outs) != len(group) {
		err = fmt.Errorf("serving: runner returned %d results for a batch of %d", len(outs), len(group))
	}
	execEnd := time.Now()
	execMS := durMS(execStart, execEnd)
	s.metrics.ObserveStage("execute", execMS)

	if observed {
		// One batch slice per group — the fan-in target — then one
		// execute stage per member request carrying the flow ID that the
		// trace renderer turns into an arrow from the request's span into
		// this slice.
		batchID := nextID()
		s.hub.Emit(telemetry.Event{
			Kind: telemetry.KindBatch, Name: "batch", Span: s.model,
			FlowID: batchID, Count: len(group), Start: execStart, DurMS: execMS,
		})
		for _, r := range group {
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindStage, Name: "execute", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: execStart, DurMS: execMS,
			})
		}
	}

	for i, r := range group {
		// A request's trace events go out before its response: once the
		// submitter has the response its handler can finish, and a trace
		// read after that must already hold the whole request.
		end := time.Now()
		splitMS := durMS(execEnd, end)
		s.metrics.ObserveStage("split", splitMS)
		if observed {
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindStage, Name: "split", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: execEnd, DurMS: splitMS,
			})
			s.hub.Emit(telemetry.Event{
				Kind: telemetry.KindRequest, Name: "request", Span: s.model,
				Trace: r.trace, FlowID: r.flow, Start: r.enqueued,
				DurMS: durMS(r.enqueued, end),
			})
		}
		if err != nil {
			r.resp <- response{err: err}
		} else {
			r.resp <- response{inst: outs[i]}
		}
	}
}

// durMS is the duration between two instants in float milliseconds.
func durMS(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}
