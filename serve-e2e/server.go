package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/converter"
	"repro/internal/serving"
	"repro/tf"
)

// servingOptions mirrors cmd/tfjs-serve's flag defaults: max-batch 16,
// batch-timeout 2ms, queue 128, 1 worker, 1 replica, 30s request timeout,
// static cost model, node backend.
func servingOptions() serving.ModelOptions {
	return serving.ModelOptions{
		Backend: "node",
		Batching: serving.Config{
			MaxBatchSize:   16,
			BatchTimeout:   2 * time.Millisecond,
			QueueSize:      128,
			Workers:        1,
			RequestTimeout: 30 * time.Second,
		},
		Replicas: 1,
		Exec:     []tf.ExecOption{tf.WithCostModel(tf.CostModelStatic)},
	}
}

// connTracker counts a server's open connections through http.Server's
// ConnState hook and remembers the most ever open at once.
type connTracker struct {
	mu   sync.Mutex
	open int
	max  int
}

func (c *connTracker) observe(_ net.Conn, s http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s {
	case http.StateNew:
		c.open++
		if c.open > c.max {
			c.max = c.open
		}
	case http.StateClosed, http.StateHijacked:
		c.open--
	}
}

// maxOpen reports the most connections ever open at once.
func (c *connTracker) maxOpen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// newClient returns the load generator's HTTP client: keep-alive
// connections, at most limit of them to the server.
func newClient(limit int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     limit,
		MaxIdleConnsPerHost: limit,
		DisableCompression:  true,
	}}
}

// server is one set-up of the production path: a registry with the model
// loaded, wrapped by serving.NewServer and served on a loopback listener.
type server struct {
	reg   *serving.Registry
	api   *serving.Server
	model *serving.Model
	store converter.Store
	http  *http.Server
	base  string // "http://127.0.0.1:port"
	conns *connTracker
	done  chan error // Serve's return value
}

// setupTimes are the parts of one set-up, each in seconds.
type setupTimes struct {
	total        float64 // conversion start → first correct 200
	convert      float64 // converter.Convert
	load         float64 // Registry.Load → WaitReady
	firstPredict float64 // the first request, client-measured
}

// setUp converts the source model, loads it, attaches the server's
// observers, starts the listener and sends the first request, which must
// come back correct. wrap, when non-nil, wraps the server's handler.
func setUp(in *inputs, client *http.Client, wrap func(http.Handler) http.Handler) (*server, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	store := converter.NewMemStore()
	if _, err := converter.Convert(in.source, store, converter.Options{}); err != nil {
		return nil, t, fmt.Errorf("converting: %w", err)
	}
	converted := time.Now()
	reg := serving.NewRegistry()
	model, err := reg.Load(modelName, store, servingOptions())
	if err == nil {
		err = model.WaitReady(context.Background())
	}
	if err != nil {
		reg.Close()
		return nil, t, fmt.Errorf("loading: %w", err)
	}
	loaded := time.Now()
	api := serving.NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		reg.Close()
		return nil, t, fmt.Errorf("listening: %w", err)
	}
	s := &server{reg: reg, api: api, model: model, store: store, conns: &connTracker{}, done: make(chan error, 1)}
	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	s.http = &http.Server{Handler: h, ConnState: s.conns.observe}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.http.Serve(ln) }()

	firstStart := time.Now()
	bd := in.bodies[0]
	data, status, err := post(client, s.predictURL(), bd.data, "setup", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, data)
	}
	if err == nil {
		err = checkResponse(data, bd, in.refs)
	}
	end := time.Now()
	if err != nil {
		return nil, t, errors.Join(fmt.Errorf("first request: %w", err), s.close())
	}
	t.total = end.Sub(start).Seconds()
	t.convert = converted.Sub(start).Seconds()
	t.load = loaded.Sub(converted).Seconds()
	t.firstPredict = end.Sub(firstStart).Seconds()
	return s, t, nil
}

func (s *server) predictURL() string { return s.base + "/v1/models/" + modelName + ":predict" }

// close stops the listener and waits for the serve loop, detaches the
// server's observers and unloads the model.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.api.Close()
	s.reg.Close()
	return err
}

// post sends one predict body with the given X-Request-ID and reads the
// whole response into buf (reused across calls when non-nil).
func post(client *http.Client, url string, payload []byte, id string, buf *bytes.Buffer) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	return do(client, req, buf)
}

// do runs one request and reads the whole response body.
func do(client *http.Client, req *http.Request, buf *bytes.Buffer) ([]byte, int, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	return buf.Bytes(), resp.StatusCode, nil
}
