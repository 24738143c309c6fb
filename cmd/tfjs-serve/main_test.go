package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serving"
)

// TestAPIServerTimeouts pins the slow-client bounds: a slow header and
// an idle keep-alive connection stop at their constants, and no
// whole-request ReadTimeout is set (it would cancel handler contexts).
func TestAPIServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newAPIServer(":8500", h)
	if srv.Addr != ":8500" || srv.Handler != h {
		t.Errorf("server addr %q handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadTimeout != 0 {
		t.Errorf("ReadTimeout %v, want none", srv.ReadTimeout)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout %v, want %v", srv.IdleTimeout, idleTimeout)
	}
}

// TestStuckModelIs504 serves the demo model through newAPIServer while
// the engine's execution lock is held, so no batch can run: the predict
// must end at the request timeout with a 504. A connection deadline that
// cancelled the handler's context first would turn it into a 500.
func TestStuckModelIs504(t *testing.T) {
	store, err := demoStore()
	if err != nil {
		t.Fatal(err)
	}
	reg := serving.NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mobilenet", store, serving.ModelOptions{
		Batching: serving.Config{MaxBatchSize: 1, RequestTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	api := serving.NewServer(reg)
	defer api.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newAPIServer(ln.Addr().String(), api)
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	}()
	defer srv.Close()

	held, release := make(chan struct{}), make(chan struct{})
	go core.Global().RunExclusive(func() {
		close(held)
		<-release
	})
	<-held
	defer close(release)

	body := `{"instances": [[` + strings.Repeat(`[`+strings.Repeat("[0.5,0.5,0.5],", 95)+`[0.5,0.5,0.5]],`, 95) +
		`[` + strings.Repeat("[0.5,0.5,0.5],", 95) + `[0.5,0.5,0.5]]]]}`
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/models/mobilenet:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("stuck model: status %d body %q, want 504", resp.StatusCode, data)
	}
}
