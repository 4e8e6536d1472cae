package rpc

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHandlerBusyStatus checks that a handler error wrapping ErrBusy
// travels the wire as the dedicated busy status and surfaces on the
// client as an error classified transient — not a RemoteError.
func TestHandlerBusyStatus(t *testing.T) {
	s := NewServer()
	s.Register("busy", func(body []byte) ([]byte, error) {
		return nil, errors.New("plain failure")
	})
	s.Register("saturated", func(body []byte) ([]byte, error) {
		return nil, ErrBusy
	})
	defer s.Close()
	c := Pipe(s)
	defer c.Close()

	_, err := c.Call("saturated", nil)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if !IsTransient(err) {
		t.Fatalf("busy error must be transient: %v", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("busy error must not be a RemoteError: %v", err)
	}

	// Plain handler errors still map to RemoteError.
	_, err = c.Call("busy", nil)
	if !errors.As(err, &re) {
		t.Fatalf("plain handler error should be RemoteError, got %v", err)
	}

	// The connection survives a busy rejection.
	if _, err := c.Call("saturated", nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("second busy call: %v", err)
	}
}

// TestConnLimitRefusesBusy checks that connections beyond SetConnLimit
// get one busy response and a close, while connections under the limit
// keep working — and that freeing a slot admits a new connection.
func TestConnLimitRefusesBusy(t *testing.T) {
	s := echoServer(t)
	s.SetConnLimit(2)
	defer s.Close()

	c1 := Pipe(s)
	defer c1.Close()
	c2 := Pipe(s)
	defer c2.Close()
	// Make sure both connections are registered before the third dials:
	// ServeConn runs in a goroutine, so complete a round-trip on each.
	for _, c := range []*Client{c1, c2} {
		if _, err := c.Call("echo", []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}

	c3 := Pipe(s)
	_, err := c3.Call("echo", []byte("over"))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-limit call = %v, want ErrBusy", err)
	}
	c3.Close()

	// Existing connections are unaffected.
	if _, err := c1.Call("echo", []byte("still ok")); err != nil {
		t.Fatal(err)
	}

	// Closing one frees a slot for a newcomer.
	c2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c4 := Pipe(s)
		_, err := c4.Call("echo", []byte("after free"))
		c4.Close()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBusy) || time.Now().After(deadline) {
			t.Fatalf("post-free call = %v", err)
		}
		time.Sleep(5 * time.Millisecond) // server still tearing down c2
	}
}

// TestReconnectBacksOffOnBusy checks the resilient client's busy path:
// it retries with backoff, keeps the connection (no redial), doesn't
// count toward the breaker, and records the rpc.call.busy counter.
func TestReconnectBacksOffOnBusy(t *testing.T) {
	s := NewServer()
	remaining := breakerThreshold + 1 // more busy calls than trip the breaker, then succeed
	s.Register("work", func(body []byte) ([]byte, error) {
		if remaining > 0 {
			remaining--
			return nil, ErrBusy
		}
		return []byte("done"), nil
	})
	defer s.Close()

	reg := obs.NewRegistry(16)
	var sleeps int
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints: []string{"srv"},
		DialEndpoint: func(string) (net.Conn, error) {
			cc, sc := net.Pipe()
			go s.ServeConn(sc)
			return cc, nil
		},
		MaxRetries: breakerThreshold + 3,
		Sleep:      func(time.Duration) { sleeps++ },
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	out, err := rc.Call("work", nil)
	if err != nil {
		t.Fatalf("call after busy streak: %v", err)
	}
	if string(out) != "done" {
		t.Fatalf("out = %q", out)
	}
	if sleeps != breakerThreshold+1 {
		t.Fatalf("sleeps = %d, want %d (one backoff per busy)", sleeps, breakerThreshold+1)
	}
	if rc.Tripped() {
		t.Fatal("busy responses must not trip the breaker")
	}
	if got := rc.Redials(); got != 1 {
		t.Fatalf("redials = %d, want 1 (busy keeps the connection)", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["rpc.call.busy"] != breakerThreshold+1 {
		t.Fatalf("rpc.call.busy = %d, want %d", snap.Counters["rpc.call.busy"], breakerThreshold+1)
	}
}

// TestReconnectBusyExhaustsRetries checks that a persistently busy
// server eventually surfaces ErrBusy to the caller (still transient,
// still no breaker trip).
func TestReconnectBusyExhaustsRetries(t *testing.T) {
	s := NewServer()
	s.Register("work", func(body []byte) ([]byte, error) { return nil, ErrBusy })
	defer s.Close()

	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints: []string{"srv"},
		DialEndpoint: func(string) (net.Conn, error) {
			cc, sc := net.Pipe()
			go s.ServeConn(sc)
			return cc, nil
		},
		MaxRetries: 2,
		Sleep:      func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	_, err = rc.Call("work", nil)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if rc.Tripped() {
		t.Fatal("breaker must stay closed on busy streaks")
	}
}
