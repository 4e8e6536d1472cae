package rpc

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// endpointFabric maps endpoint names to servers so endpoint-set tests
// run over in-process pipes. A name mapped to nil is a dead replica:
// dials to it are refused. Remapping a name models a crash + restart.
type endpointFabric struct {
	mu      sync.Mutex
	servers map[string]*Server
	dials   map[string]int
}

func newFabric() *endpointFabric {
	return &endpointFabric{servers: make(map[string]*Server), dials: make(map[string]int)}
}

func (f *endpointFabric) set(name string, s *Server) {
	f.mu.Lock()
	f.servers[name] = s
	f.mu.Unlock()
}

func (f *endpointFabric) dial(name string) (net.Conn, error) {
	f.mu.Lock()
	f.dials[name]++
	s := f.servers[name]
	f.mu.Unlock()
	if s == nil {
		return nil, errors.New("dial " + name + ": connection refused")
	}
	cc, sc := net.Pipe()
	go s.ServeConn(sc)
	return cc, nil
}

func (f *endpointFabric) dialCount(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials[name]
}

func TestRedirectStatusRoundTrip(t *testing.T) {
	s := NewServer()
	s.Register("owner.only", func(body []byte) ([]byte, error) {
		return nil, &RedirectError{Endpoint: "replica-1:8471"}
	})
	defer s.Close()
	c := Pipe(s)
	defer c.Close()

	_, err := c.Call("owner.only", nil)
	var redir *RedirectError
	if !errors.As(err, &redir) {
		t.Fatalf("err = %v (%T), want RedirectError", err, err)
	}
	if redir.Endpoint != "replica-1:8471" {
		t.Fatalf("redirect endpoint = %q", redir.Endpoint)
	}
	if !IsTransient(err) {
		t.Fatal("redirect must classify as transient")
	}
}

func TestEndpointSetFailsOverToSurvivor(t *testing.T) {
	f := newFabric()
	f.set("a", nil) // dead replica
	f.set("b", echoServer(t))

	reg := obs.NewRegistry(16)
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"a", "b"},
		DialEndpoint: f.dial,
		Sleep:        ns.sleep,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	got, err := rc.Call("echo", []byte("hi"))
	if err != nil {
		t.Fatalf("call with one dead endpoint: %v", err)
	}
	if !bytes.Equal(got, []byte("hi")) {
		t.Fatalf("echoed %q", got)
	}
	if ep := rc.CurrentEndpoint(); ep != "b" {
		t.Fatalf("current endpoint = %q, want b", ep)
	}
	if rc.Tripped() {
		t.Fatal("set tripped with a healthy survivor")
	}
	snap := reg.Snapshot()
	if got := snap.C("rpc.dial.failures"); got != 1 {
		t.Fatalf("rpc.dial.failures = %d, want 1 (the dead replica)", got)
	}
	if got := snap.C("rpc.call.failures"); got != 0 {
		t.Fatalf("rpc.call.failures = %d, want 0 (no established call failed)", got)
	}
}

func TestEndpointSetFollowsRedirect(t *testing.T) {
	owner := NewServer()
	owner.Register("fleet.open", func(body []byte) ([]byte, error) {
		return []byte("opened@b"), nil
	})
	defer owner.Close()
	misplaced := NewServer()
	misplaced.Register("fleet.open", func(body []byte) ([]byte, error) {
		return nil, &RedirectError{Endpoint: "b"}
	})
	defer misplaced.Close()

	f := newFabric()
	f.set("a", misplaced)
	f.set("b", owner)

	reg := obs.NewRegistry(16)
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"a"}, // b is discovered via the redirect
		DialEndpoint: f.dial,
		Sleep:        ns.sleep,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	got, err := rc.Call("fleet.open", nil)
	if err != nil {
		t.Fatalf("redirected call: %v", err)
	}
	if string(got) != "opened@b" {
		t.Fatalf("served by %q, want the owner", got)
	}
	if ep := rc.CurrentEndpoint(); ep != "b" {
		t.Fatalf("current endpoint = %q, want the redirect target", ep)
	}
	snap := reg.Snapshot()
	if got := snap.C("rpc.redirects"); got != 1 {
		t.Fatalf("rpc.redirects = %d, want 1", got)
	}
	if got := snap.C("rpc.call.failures") + snap.C("rpc.dial.failures"); got != 0 {
		t.Fatalf("redirect counted as a failure: %d", got)
	}
}

func TestEndpointSetAllBreakersOpen(t *testing.T) {
	f := newFabric()
	f.set("a", nil)
	f.set("b", nil)

	reg := obs.NewRegistry(16)
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"a", "b"},
		DialEndpoint: f.dial,
		MaxRetries:   2 * breakerThreshold,
		Sleep:        ns.sleep,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Call("echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen once every endpoint is dead", err)
	}
	if !rc.Tripped() {
		t.Fatal("Tripped() = false with every breaker open")
	}
	if !rc.EndpointTripped("a") || !rc.EndpointTripped("b") {
		t.Fatal("per-endpoint breakers not both open")
	}
	snap := reg.Snapshot()
	if got := snap.C("rpc.breaker.opened"); got != 2 {
		t.Fatalf("rpc.breaker.opened = %d, want 2 (one per endpoint)", got)
	}
	if got := snap.Gauges["rpc.breaker.state"]; got != 2 {
		t.Fatalf("rpc.breaker.state = %d, want 2 open breakers", got)
	}
	// Fail-fast once open: no further dial attempts.
	before := f.dialCount("a") + f.dialCount("b")
	if _, err := rc.Call("echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want immediate ErrCircuitOpen", err)
	}
	if after := f.dialCount("a") + f.dialCount("b"); after != before {
		t.Fatalf("open breaker still dialing: %d -> %d", before, after)
	}
}

// Failover is sticky: after a replica dies mid-stream the client pins
// the survivor and stops burning dials on the corpse.
func TestEndpointFailoverIsSticky(t *testing.T) {
	f := newFabric()
	f.set("a", echoServer(t))
	f.set("b", echoServer(t))

	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"a", "b"},
		DialEndpoint: f.dial,
		MaxRetries:   8,
		Sleep:        ns.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Call("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	// Replica a crashes: its conn dies and redials are refused until its
	// breaker opens; traffic must keep flowing through b.
	f.set("a", nil)
	rc.mu.Lock()
	if c := rc.eps[0].c; c != nil {
		c.Close()
	}
	rc.mu.Unlock()
	for i := 0; i < 6; i++ {
		if _, err := rc.Call("echo", []byte{byte(i)}); err != nil {
			t.Fatalf("call %d during a-outage: %v", i, err)
		}
	}
	if rc.Tripped() {
		t.Fatal("whole set reported dead while b serves")
	}
	if ep := rc.CurrentEndpoint(); ep != "b" {
		t.Fatalf("current endpoint = %q, want the survivor", ep)
	}
	// Pinned to the survivor: the six post-crash calls needed exactly one
	// dial to b beyond the warm-up; the corpse saw at most one re-dial.
	if got := f.dialCount("a"); got > 2 {
		t.Fatalf("dials to dead replica = %d, want <= 2 (sticky failover)", got)
	}
}

// TestDialVsCallFailureClassification is the regression test for the
// breaker-budget attribution fix: dials refused inside a faultnet
// partition window must land in rpc.dial.failures, while the death of
// an established, in-flight call lands in rpc.call.failures — the two
// must never be conflated.
func TestDialVsCallFailureClassification(t *testing.T) {
	s := echoServer(t)
	defer s.Close()

	// Conn 1 dies after one request (an in-flight call failure); dial
	// attempts 2-4 are partitioned (pure dial failures); attempt 5 heals.
	d := dialerFor(s, func(attempt int) faultnet.Config {
		if attempt == 1 {
			return faultnet.Config{DropAfterWrites: 1}
		}
		return faultnet.Config{}
	})
	d.Partitions = [][2]int{{2, 4}}
	reg := obs.NewRegistry(16)
	ns := &noSleep{}
	rc, err := NewReconnectClient(ReconnectOptions{
		Endpoints:    []string{"srv"},
		DialEndpoint: d.Next,
		MaxRetries:   6,
		Sleep:        ns.sleep,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Call("echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Call("echo", []byte("b")); err != nil {
		t.Fatalf("call across partition window: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.C("rpc.call.failures"); got != 1 {
		t.Fatalf("rpc.call.failures = %d, want 1 (only the in-flight conn death)", got)
	}
	if got := snap.C("rpc.dial.failures"); got != 3 {
		t.Fatalf("rpc.dial.failures = %d, want 3 (the partition window)", got)
	}
}
