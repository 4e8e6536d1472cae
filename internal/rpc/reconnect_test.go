package rpc

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// noSleep replaces real backoff sleeps with a recorder so fault tests run
// in microseconds.
type noSleep struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (n *noSleep) sleep(d time.Duration) {
	n.mu.Lock()
	n.slept = append(n.slept, d)
	n.mu.Unlock()
}

func (n *noSleep) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.slept)
}

// dialerFor wires each dial to a fresh served connection on s.
func dialerFor(s *Server, faults func(attempt int) faultnet.Config) *faultnet.Dialer {
	return &faultnet.Dialer{
		Dial: func() (net.Conn, error) {
			cc, sc := net.Pipe()
			go s.ServeConn(sc)
			return cc, nil
		},
		Faults: faults,
	}
}

func TestReconnectSurvivesRepeatedDisconnects(t *testing.T) {
	s := echoServer(t)
	defer s.Close()

	// The first three connections die after one request each (an rpc
	// request is one buffered write: the client frames length prefix and
	// payload into a single conn.Write); later ones are healthy.
	d := dialerFor(s, func(attempt int) faultnet.Config {
		if attempt <= 3 {
			return faultnet.Config{DropAfterWrites: 1}
		}
		return faultnet.Config{}
	})
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: d.Next,
		Sleep:        ns.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	for i := 0; i < 10; i++ {
		got, err := rc.Call("echo", []byte{byte(i)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("call %d echoed %v", i, got)
		}
	}
	if d.Attempts() < 4 {
		t.Fatalf("attempts = %d, want >= 4 (three dead conns + a live one)", d.Attempts())
	}
	if rc.Tripped() {
		t.Fatal("breaker tripped on a recoverable fault sequence")
	}
}

func TestReconnectRidesOutPartitionWindow(t *testing.T) {
	s := echoServer(t)
	defer s.Close()

	// Conn 1 dies after one request; dial attempts 2-4 are partitioned;
	// attempt 5 heals.
	d := dialerFor(s, func(attempt int) faultnet.Config {
		if attempt == 1 {
			return faultnet.Config{DropAfterWrites: 1}
		}
		return faultnet.Config{}
	})
	d.Partitions = [][2]int{{2, 4}}
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: d.Next,
		MaxRetries:   6,
		Sleep:        ns.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Call("echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// This call burns the dead conn, then three partitioned redials,
	// then succeeds on attempt 5.
	if _, err := rc.Call("echo", []byte("b")); err != nil {
		t.Fatalf("call across partition window: %v", err)
	}
	if got := d.Attempts(); got != 5 {
		t.Fatalf("dial attempts = %d, want 5", got)
	}
	if ns.count() < 4 {
		t.Fatalf("backoff sleeps = %d, want >= 4", ns.count())
	}
	// Backoff grows (modulo ±20% jitter, doubling always dominates).
	for i := 1; i < len(ns.slept); i++ {
		if ns.slept[i] <= ns.slept[i-1] && ns.slept[i-1] < maxBackoff/2 {
			t.Fatalf("backoff not growing: %v", ns.slept)
		}
	}
}

func TestReconnectBackoffDeterministicBySeed(t *testing.T) {
	run := func() []time.Duration {
		s := echoServer(t)
		defer s.Close()
		d := dialerFor(s, nil)
		d.Partitions = [][2]int{{1, 3}}
		ns := &noSleep{}
		rc, err := NewReconnectClient(ReconnectOptions{
			Endpoints:    []string{"srv"},
			DialEndpoint: d.Next,
			MaxRetries:   4,
			Seed:         42,
			Sleep:        ns.sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if _, err := rc.Call("echo", nil); err != nil {
			t.Fatal(err)
		}
		return ns.slept
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no backoffs recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("different sleep counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCircuitBreakerTripsAfterKFailures(t *testing.T) {
	dials := 0
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints: []string{"srv"},
		DialEndpoint: func(string) (net.Conn, error) {
			dials++
			return nil, errors.New("no route to host")
		},
		MaxRetries: breakerThreshold + 2,
		Sleep:      ns.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Call("echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if dials != breakerThreshold {
		t.Fatalf("dials = %d, want exactly the breaker threshold %d", dials, breakerThreshold)
	}
	if !rc.Tripped() {
		t.Fatal("Tripped() = false after trip")
	}
	// Open breaker fails fast: no further dials, no sleeps.
	before := ns.count()
	if _, err := rc.Call("echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-trip err = %v", err)
	}
	if dials != breakerThreshold || ns.count() != before {
		t.Fatalf("open breaker still dialing/sleeping (dials=%d)", dials)
	}
	// The fatal error is classified as such for upper layers.
	_, err = rc.Call("echo", nil)
	if IsTransient(err) {
		t.Fatal("ErrCircuitOpen classified transient")
	}
}

func TestReconnectObsMetrics(t *testing.T) {
	s := echoServer(t)
	defer s.Close()

	// Two connections die after one request each, then healthy: the
	// registry must record the calls, the churn, and no breaker trip.
	d := dialerFor(s, func(attempt int) faultnet.Config {
		if attempt <= 2 {
			return faultnet.Config{DropAfterWrites: 1}
		}
		return faultnet.Config{}
	})
	reg := obs.NewRegistry(16)
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: d.Next,
		Sleep:        ns.sleep,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const calls = 6
	for i := 0; i < calls; i++ {
		if _, err := rc.Call("echo", []byte{byte(i)}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.C("rpc.calls"); got != calls {
		t.Fatalf("rpc.calls = %d, want %d", got, calls)
	}
	if got := snap.C("rpc.redials"); got != int64(d.Attempts()) {
		t.Fatalf("rpc.redials = %d, dialer saw %d attempts", got, d.Attempts())
	}
	if got := snap.C("rpc.call.failures"); got != 2 {
		t.Fatalf("rpc.call.failures = %d, want 2 (one per dead conn)", got)
	}
	if got := snap.C("rpc.breaker.opened"); got != 0 {
		t.Fatalf("breaker opened %d times on a recoverable sequence", got)
	}
	if h := snap.Histograms["rpc.call.latency_us"]; h.Count != calls {
		t.Fatalf("latency observations = %d, want %d", h.Count, calls)
	}

	// A dead endpoint trips the breaker: counter, gauge, and event.
	reg2 := obs.NewRegistry(16)
	rc2, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: func(string) (net.Conn, error) { return nil, errors.New("no route") },
		MaxRetries:   breakerThreshold + 2,
		Sleep:        ns.sleep,
		Obs:          reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	if _, err := rc2.Call("echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	snap2 := reg2.Snapshot()
	if got := snap2.C("rpc.breaker.opened"); got != 1 {
		t.Fatalf("rpc.breaker.opened = %d, want 1", got)
	}
	if got := snap2.Gauges["rpc.breaker.state"]; got != 1 {
		t.Fatalf("rpc.breaker.state = %d, want 1 (open)", got)
	}
	found := false
	for _, ev := range snap2.Events {
		if ev.Scope == "rpc" && ev.Name == "breaker-open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no breaker-open event in ring: %+v", snap2.Events)
	}
}

func TestRemoteErrorsDoNotTripBreaker(t *testing.T) {
	s := echoServer(t)
	defer s.Close()
	d := dialerFor(s, nil)
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: d.Next,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	for i := 0; i < 10; i++ {
		_, err := rc.Call("fail", nil)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("call %d err = %v, want RemoteError", i, err)
		}
	}
	if rc.Tripped() {
		t.Fatal("application errors tripped the transport breaker")
	}
	if d.Attempts() != 1 {
		t.Fatalf("redialed %d times on healthy transport", d.Attempts())
	}
}

func TestReconnectCallTimeout(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Register("slow", func(body []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	defer func() { close(block); s.Close() }()

	d := dialerFor(s, nil)
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: d.Next,
		CallTimeout:  10 * time.Millisecond,
		MaxRetries:   1,
		Sleep:        ns.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Call("slow", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The timed-out conn was discarded and redialed for the retry.
	if d.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", d.Attempts())
	}
}

func TestNewReconnectClientRequiresDial(t *testing.T) {
	if _, err := NewReconnectClient(ReconnectOptions{}); err == nil {
		t.Fatal("empty endpoint set accepted")
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrClosed, true},
		{ErrTimeout, true},
		{errors.New("connection reset by peer"), true},
		{&RemoteError{Msg: "bad arg"}, false},
		{&RedirectError{Endpoint: "replica-1:8471"}, true},
		{ErrCircuitOpen, false},
		{ErrFrameTooLarge, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
