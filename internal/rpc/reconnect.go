package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prng"
)

// ErrCircuitOpen is returned once every endpoint's breaker has tripped:
// the endpoint set has failed so many consecutive times that further
// redial attempts would only burn time the caller could spend shutting
// down cleanly.
var ErrCircuitOpen = errors.New("rpc: circuit breaker open")

// Caller is the calling surface shared by Client and ReconnectClient, so
// consumers (the profiler's RPC path, the CLI tools) can take either.
type Caller interface {
	Call(method string, body []byte) ([]byte, error)
	CallTimeout(method string, body []byte, timeout time.Duration) ([]byte, error)
	Close() error
}

var (
	_ Caller = (*Client)(nil)
	_ Caller = (*ReconnectClient)(nil)
)

// EndpointDialFunc produces a fresh connection to a named endpoint; the
// ReconnectClient owns the returned conn.
type EndpointDialFunc func(endpoint string) (net.Conn, error)

// ReconnectOptions configure a ReconnectClient. The zero value of every
// field except Endpoints gets a sensible default.
type ReconnectOptions struct {
	// Endpoints is the replica set (a single endpoint is a set of one):
	// the client fails over between these addresses on transport errors
	// and follows typed redirects to whichever replica owns a resource.
	// Each endpoint gets its own circuit breaker; ErrCircuitOpen fires
	// only when every endpoint's breaker is open.
	Endpoints []string

	// DialEndpoint reaches one member of Endpoints (default: TCP dial
	// of the endpoint string).
	DialEndpoint EndpointDialFunc

	// CallTimeout bounds each attempt of each call (0 = no deadline).
	CallTimeout time.Duration

	// MaxRetries is how many times a call is retried after a transport
	// failure before the failure is surfaced (default 3; negative
	// disables retries).
	MaxRetries int

	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to maxBackoff. Default 10ms.
	BaseBackoff time.Duration

	// Seed keys the PRNG that spreads each backoff uniformly over
	// ±jitterFrac of its value, so two clients with the same script sleep
	// the same sequence — reproducible tests, and no synchronized
	// thundering herds in production.
	Seed uint64

	// Sleep is the delay function, injectable so tests can count
	// backoffs instead of waiting them out. Default time.Sleep.
	Sleep func(time.Duration)

	// Obs, when set, receives the client's metrics (calls, failures,
	// per-call latency, redials) and breaker state-transition events.
	Obs *obs.Registry
}

// rcMetrics are the ReconnectClient's obs instruments (nil-safe).
// Transport faults are classified by where they happened: a refused or
// failed dial to a dead endpoint lands in rpc.dial.failures, a failure
// of an established in-flight call in rpc.call.failures — so a replica
// outage shows up as dial pressure, not as phantom call errors.
type rcMetrics struct {
	calls        *obs.Counter // Call/CallTimeout invocations
	failures     *obs.Counter // established calls that returned a transport error
	dialFailures *obs.Counter // dials that never produced a connection
	retries      *obs.Counter // per-call retry attempts after backoff
	busy         *obs.Counter // server-busy rejections retried with backoff
	redirects    *obs.Counter // placement redirects followed
	redials      *obs.Counter // fresh connections established
	breakerOpen  *obs.Counter // times an endpoint breaker tripped
	latency      *obs.Histogram
	breaker      *obs.Gauge // number of open endpoint breakers
}

func newRCMetrics(r *obs.Registry) rcMetrics {
	return rcMetrics{
		calls:        r.Counter("rpc.calls"),
		failures:     r.Counter("rpc.call.failures"),
		dialFailures: r.Counter("rpc.dial.failures"),
		retries:      r.Counter("rpc.call.retries"),
		busy:         r.Counter("rpc.call.busy"),
		redirects:    r.Counter("rpc.redirects"),
		redials:      r.Counter("rpc.redials"),
		breakerOpen:  r.Counter("rpc.breaker.opened"),
		latency:      r.Histogram("rpc.call.latency_us"),
		breaker:      r.Gauge("rpc.breaker.state"),
	}
}

const (
	defaultMaxRetries  = 3
	defaultBaseBackoff = 10 * time.Millisecond
	maxBackoff         = time.Second
	jitterFrac         = 0.2

	// breakerThreshold trips an endpoint's circuit breaker after this
	// many consecutive transport failures against it (across calls);
	// once every endpoint is open, calls fail fast with ErrCircuitOpen.
	breakerThreshold = 8
)

// endpoint is one member of the client's endpoint set: its address, its
// live connection (nil until dialed), and its private breaker state.
type endpoint struct {
	addr    string
	c       *Client
	consec  int // consecutive transport failures against this endpoint
	tripped bool
}

// ReconnectClient is a Caller that survives connection and replica
// death: on a transport failure it discards the connection, fails over
// to the next endpoint in its set (redialing with capped exponential
// backoff and deterministic jitter), and replays the call. Typed
// placement redirects (RedirectError) are followed to the replica that
// owns the resource. Per-endpoint circuit breakers turn a persistently
// dead endpoint into a skip, and a fully dead set into an immediate,
// classifiable fatal error instead of an unbounded retry storm.
type ReconnectClient struct {
	opts ReconnectOptions
	m    rcMetrics

	mu      sync.Mutex
	rng     *prng.Source
	eps     []*endpoint
	byAddr  map[string]int
	cur     int // index of the preferred endpoint
	redials int
	closed  bool
}

// NewReconnectClient builds a client over an endpoint set. It does not
// dial eagerly; the first Call does.
func NewReconnectClient(opts ReconnectOptions) (*ReconnectClient, error) {
	if len(opts.Endpoints) == 0 {
		return nil, errors.New("rpc: ReconnectOptions needs Endpoints")
	}
	if opts.DialEndpoint == nil {
		opts.DialEndpoint = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = defaultMaxRetries
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = defaultBaseBackoff
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	r := &ReconnectClient{
		opts:   opts,
		m:      newRCMetrics(opts.Obs),
		rng:    prng.New(opts.Seed),
		byAddr: make(map[string]int),
	}
	for _, addr := range opts.Endpoints {
		if _, dup := r.byAddr[addr]; dup {
			continue
		}
		r.byAddr[addr] = len(r.eps)
		r.eps = append(r.eps, &endpoint{addr: addr})
	}
	return r, nil
}

// Call invokes method, transparently redialing, failing over, and
// retrying transport failures up to MaxRetries with backoff.
// Application-level RemoteErrors return immediately and reset the
// endpoint's failure streak (the wire worked).
func (r *ReconnectClient) Call(method string, body []byte) ([]byte, error) {
	return r.CallTimeout(method, body, r.opts.CallTimeout)
}

// CallTimeout is Call with an explicit per-attempt deadline overriding
// the configured CallTimeout.
func (r *ReconnectClient) CallTimeout(method string, body []byte, timeout time.Duration) ([]byte, error) {
	r.m.calls.Inc()
	start := time.Now()
	defer r.m.latency.ObserveSince(start)
	var lastErr error
	for attempt := 0; attempt <= r.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			r.m.retries.Inc()
			r.opts.Sleep(r.backoff(attempt))
		}
		ep, c, err := r.client()
		if err != nil {
			if ep == nil {
				return nil, err // closed client, or every breaker open
			}
			// The dial itself failed: the endpoint is unreachable, no
			// call ever went out. Classified as dial pressure — not a
			// call failure — but it still feeds the endpoint's breaker
			// (a dead endpoint must eventually be skipped).
			lastErr = err
			r.m.dialFailures.Inc()
			if r.recordFailure(ep, nil) {
				return nil, fmt.Errorf("%w: %d consecutive failures, last: %v", ErrCircuitOpen, breakerThreshold, err)
			}
			r.failover(ep)
			continue
		}
		out, err := c.CallTimeout(method, body, timeout)
		if err == nil {
			r.recordSuccess(ep)
			return out, nil
		}
		var redir *RedirectError
		if errors.As(err, &redir) {
			// The server is healthy but the resource lives on another
			// replica. Re-aim at it; the redirected attempt still counts
			// against MaxRetries, which bounds redirect loops.
			r.recordSuccess(ep)
			if !r.follow(redir.Endpoint) {
				return nil, err // a redirect that names no endpoint
			}
			lastErr = err
			r.m.redirects.Inc()
			continue
		}
		var re *RemoteError
		if errors.As(err, &re) {
			r.recordSuccess(ep)
			return nil, err
		}
		if errors.Is(err, ErrBusy) {
			// The server answered — the transport is fine, it's just
			// saturated. Keep the connection, don't count toward the
			// breaker, back off and retry.
			lastErr = err
			r.m.busy.Inc()
			r.recordSuccess(ep)
			continue
		}
		lastErr = err
		r.m.failures.Inc()
		if r.recordFailure(ep, c) {
			return nil, fmt.Errorf("%w: %d consecutive failures, last: %v", ErrCircuitOpen, breakerThreshold, err)
		}
		r.failover(ep)
	}
	return nil, lastErr
}

// client returns the preferred live endpoint and its connection,
// dialing a fresh one if needed. Endpoints with open breakers are
// skipped; when every breaker is open the set is dead and the call
// fails fast. A dial failure returns the endpoint it happened on so the
// caller can attribute it.
func (r *ReconnectClient) client() (*endpoint, *Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, ErrClosed
	}
	ep := r.pickLocked()
	if ep == nil {
		return nil, nil, ErrCircuitOpen
	}
	if ep.c != nil {
		return ep, ep.c, nil
	}
	conn, err := r.opts.DialEndpoint(ep.addr)
	if err != nil {
		return ep, nil, fmt.Errorf("rpc: redial: %w", err)
	}
	ep.c = NewClient(conn)
	r.redials++
	r.m.redials.Inc()
	if r.redials > 1 {
		r.opts.Obs.Emit("rpc", "redial", fmt.Sprintf("connection %d established (endpoint %q)", r.redials, ep.addr))
	}
	return ep, ep.c, nil
}

// pickLocked returns the preferred endpoint: cur if its breaker is
// closed, else the next closed-breaker endpoint in ring order, else nil.
func (r *ReconnectClient) pickLocked() *endpoint {
	n := len(r.eps)
	for i := 0; i < n; i++ {
		ep := r.eps[(r.cur+i)%n]
		if !ep.tripped {
			if i > 0 {
				r.cur = (r.cur + i) % n
			}
			return ep
		}
	}
	return nil
}

// follow re-aims the client at addr after a placement redirect, adding
// the endpoint to the set if the redirecting replica named one the
// client was not configured with. Reports false for a redirect that
// names no endpoint.
func (r *ReconnectClient) follow(addr string) bool {
	if addr == "" {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byAddr[addr]
	if !ok {
		i = len(r.eps)
		r.byAddr[addr] = i
		r.eps = append(r.eps, &endpoint{addr: addr})
	}
	r.cur = i
	return true
}

func (r *ReconnectClient) recordSuccess(ep *endpoint) {
	r.mu.Lock()
	ep.consec = 0
	r.mu.Unlock()
}

// recordFailure counts a transport failure against ep's breaker,
// discards its failed connection (a timed-out endpoint may be wedged;
// redialing is the safe recovery), and reports whether the whole
// endpoint set is now dead (every breaker open).
func (r *ReconnectClient) recordFailure(ep *endpoint, c *Client) (allOpen bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c != nil && ep.c == c {
		ep.c.Close()
		ep.c = nil
	}
	ep.consec++
	if ep.consec >= breakerThreshold && !ep.tripped {
		ep.tripped = true
		r.m.breakerOpen.Inc()
		r.m.breaker.Set(r.openCountLocked())
		r.opts.Obs.Emit("rpc", "breaker-open",
			fmt.Sprintf("endpoint %q: %d consecutive transport failures", ep.addr, ep.consec))
	}
	for _, e := range r.eps {
		if !e.tripped {
			return false
		}
	}
	return true
}

// failover advances the preferred endpoint past ep so the next attempt
// lands on a different replica (no-op with a single endpoint).
func (r *ReconnectClient) failover(ep *endpoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.eps) <= 1 {
		return
	}
	if r.eps[r.cur] == ep {
		r.cur = (r.cur + 1) % len(r.eps)
	}
}

func (r *ReconnectClient) openCountLocked() int64 {
	n := int64(0)
	for _, e := range r.eps {
		if e.tripped {
			n++
		}
	}
	return n
}

// backoff computes the capped exponential delay for the given retry
// attempt (1-based) with deterministic jitter.
func (r *ReconnectClient) backoff(attempt int) time.Duration {
	d := r.opts.BaseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	r.mu.Lock()
	j := r.rng.Jitter(float64(d), jitterFrac)
	r.mu.Unlock()
	return time.Duration(j)
}

// Tripped reports whether the endpoint set is dead: every endpoint's
// circuit breaker is open. (With a single endpoint this is the classic
// single-breaker semantics.)
func (r *ReconnectClient) Tripped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.eps {
		if !e.tripped {
			return false
		}
	}
	return true
}

// EndpointTripped reports whether the breaker for one endpoint address
// is open (always false for unknown addresses).
func (r *ReconnectClient) EndpointTripped(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byAddr[addr]; ok {
		return r.eps[i].tripped
	}
	return false
}

// CurrentEndpoint reports the preferred endpoint address.
func (r *ReconnectClient) CurrentEndpoint() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eps[r.cur].addr
}

// Redials reports how many connections have been established.
func (r *ReconnectClient) Redials() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redials
}

// Close tears down every live connection and stops future calls.
func (r *ReconnectClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var firstErr error
	for _, ep := range r.eps {
		if ep.c != nil {
			if err := ep.c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			ep.c = nil
		}
	}
	return firstErr
}
