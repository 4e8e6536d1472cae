package profiler

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/rpc"
	"repro/internal/tpu"
)

// failingClient returns a few windows and then a permanent error —
// a dropped TPU connection mid-profile.
type failingClient struct {
	mu    sync.Mutex
	left  int
	inner Client
}

func (c *failingClient) NextProfile() (*tpu.ProfileResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return nil, errors.New("connection reset by peer")
	}
	c.left--
	return c.inner.NextProfile()
}

func TestProfilerSurfacesClientFailure(t *testing.T) {
	// The run must span more than one 60s profile window so the client's
	// failure hits after a successful delivery.
	r := fixture(t, 800)
	p := New(&failingClient{left: 1, inner: &ServiceClient{Service: r.ProfileService()}}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err == nil {
		t.Fatal("dropped connection not surfaced")
	}
	// Whatever was collected before the failure is still returned.
	if len(records) == 0 {
		t.Fatal("records collected before the failure were lost")
	}
}

func TestProfilerFailsWhenServerDiesMidStream(t *testing.T) {
	r := fixture(t, 60)
	srv := rpc.NewServer()
	r.ProfileService().Register(srv)
	conn := rpc.Pipe(srv)

	p := New(&RPCClient{Conn: conn}, Options{})
	if err := p.Start(false); err != nil {
		t.Fatal(err)
	}
	// Kill the transport under the profiler.
	srv.Close()
	conn.Close()
	if _, err := p.Stop(); err == nil {
		t.Fatal("server death not surfaced")
	}
}
