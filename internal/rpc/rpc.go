// Package rpc implements the minimal gRPC-like transport that connects
// TPUPoint-Profiler to the simulated Cloud TPU's profile service.
//
// TensorFlow reaches Cloud TPUs through gRPC: a server registers methods
// and waits for requests; a client holds a stub that frames protobuf
// payloads onto a channel. This package reproduces that path with the
// stdlib only: length-prefixed frames over any net.Conn (net.Pipe for
// in-process wiring, TCP for the CLI tools), a method-dispatch server, and
// a concurrent-safe client stub with request multiplexing.
//
// Wire framing, little-endian:
//
//	frame  := u32 length, payload
//	payload (request)  := u64 requestID, u16 methodLen, method, body
//	payload (response) := u64 requestID, u8 status, body-or-error
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame bounds a single message; large enough for a truncated-at-limits
// profile record, small enough to catch runaway encodings.
const MaxFrame = 64 << 20

// Errors returned by the transport.
var (
	ErrClosed          = errors.New("rpc: connection closed")
	ErrFrameTooLarge   = errors.New("rpc: frame exceeds limit")
	ErrUnknownMethod   = errors.New("rpc: unknown method")
	ErrMalformedFrame  = errors.New("rpc: malformed frame")
	ErrShutdownPending = errors.New("rpc: server shutting down")
)

// ErrBusy is the admission-control error: the server is at capacity
// (connection limit reached, or a collection session table full) and
// the caller should back off and retry.
// Handlers return errors wrapping ErrBusy to ship the dedicated busy
// status; clients see the error as transient (IsTransient), so
// ReconnectClient retries it with backoff instead of failing the call
// or tripping the circuit breaker.
var ErrBusy = errors.New("rpc: server busy")

const (
	statusOK       = 0
	statusErr      = 1
	statusBusy     = 2
	statusRedirect = 3
)

// RedirectError is the placement-routing status: the server is alive
// and healthy but does not own the resource the call addresses, and
// Endpoint names the replica that does. A handler returns (or wraps) a
// RedirectError to ship the dedicated redirect status; clients decode
// it back into a typed error. Redirects are transient (IsTransient):
// the cure is re-issuing the call against Endpoint, which
// ReconnectClient does automatically when it is configured with an
// endpoint set.
type RedirectError struct{ Endpoint string }

func (e *RedirectError) Error() string { return "rpc: redirected to " + e.Endpoint }

// Handler serves one method: body in, body out.
type Handler func(body []byte) ([]byte, error)

// Server dispatches framed requests to registered handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	closed   bool
	conns    map[net.Conn]struct{}
	maxConns int
	wg       sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Register installs a handler for method. Registering a duplicate panics —
// service wiring is static and a collision is a programming error.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate method %q", method))
	}
	s.handlers[method] = h
}

// SetConnLimit caps the number of concurrently served connections
// (0 = unlimited). A connection beyond the cap is answered with one
// busy-status response and closed instead of getting its own serving
// goroutine — bounded resource use under a connection storm, and a
// clear transient error the resilient client backs off on.
func (s *Server) SetConnLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxConns = n
}

// ServeConn serves requests on conn until it closes or the server shuts
// down. Each request is handled synchronously in arrival order, which
// matches the profile service's behaviour (one outstanding profile at a
// time per connection).
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.maxConns > 0 && len(s.conns) >= s.maxConns {
		s.mu.Unlock()
		refuseBusy(conn, s.maxConns)
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()

	// Per-connection buffer reuse: requests are read into readBuf and
	// responses framed into respBuf, so a connection's steady-state
	// serving loop allocates nothing for framing. Handler bodies alias
	// readBuf — handlers that retain bytes past their return (the fleet
	// append path) copy first.
	var readBuf, respBuf []byte
	for {
		payload, err := readFrameInto(conn, &readBuf)
		if err != nil {
			return
		}
		id, method, body, err := splitRequest(payload)
		if err != nil {
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[method]
		closed := s.closed
		s.mu.RUnlock()

		var status byte
		var out []byte
		switch {
		case closed:
			status, out = statusErr, []byte(ErrShutdownPending.Error())
		case !ok:
			status, out = statusErr, []byte(fmt.Sprintf("%s: %q", ErrUnknownMethod, method))
		default:
			res, herr := safeCall(h, body)
			var redir *RedirectError
			switch {
			case herr == nil:
				status, out = statusOK, res
			case errors.Is(herr, ErrBusy):
				status, out = statusBusy, []byte(herr.Error())
			case errors.As(herr, &redir):
				// The redirect body is the bare endpoint so the client
				// can reconstruct the typed error without parsing prose.
				status, out = statusRedirect, []byte(redir.Endpoint)
			default:
				status, out = statusErr, []byte(herr.Error())
			}
		}
		n := 8 + 1 + len(out)
		if n > MaxFrame {
			return
		}
		respBuf = respBuf[:0]
		respBuf = binary.LittleEndian.AppendUint32(respBuf, uint32(n))
		respBuf = binary.LittleEndian.AppendUint64(respBuf, id)
		respBuf = append(respBuf, status)
		respBuf = append(respBuf, out...)
		if _, err := conn.Write(respBuf); err != nil {
			return
		}
	}
}

// refuseBusy answers the first request on an over-limit connection with
// a busy-status response so the client gets a classifiable error rather
// than a silent close.
func refuseBusy(conn net.Conn, limit int) {
	payload, err := readFrame(conn)
	if err != nil {
		return
	}
	id, _, _, err := splitRequest(payload)
	if err != nil {
		return
	}
	msg := fmt.Sprintf("%s: connection limit %d reached", ErrBusy, limit)
	_ = writeFrame(conn, responseFrame(id, statusBusy, []byte(msg)))
}

// safeCall invokes a handler, converting a panic into a handler error so
// one bad request (or a corrupted body that trips a decoder) can never
// take the serving goroutine — and with it the connection teardown
// bookkeeping — down.
func safeCall(h Handler, body []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return h(body)
}

// Serve accepts connections from l until Close.
func (s *Server) Serve(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go s.ServeConn(conn)
	}
}

// Close stops the server and closes all active connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Client is a stub bound to one connection. Calls are concurrency-safe
// and multiplexed by request id.
type Client struct {
	conn net.Conn

	// writeMu serializes frame writes and guards writeBuf, the reused
	// buffer every request is framed into: one allocation-free build,
	// one conn.Write per call at steady state.
	writeMu  sync.Mutex
	writeBuf []byte

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error
	done    chan struct{}
}

type response struct {
	status byte
	body   []byte
}

// NewClient wraps conn in a stub and starts its receive loop.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go c.recvLoop()
	return c
}

// Dial connects to a TCP address and returns a stub.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

func (c *Client) recvLoop() {
	for {
		payload, err := readFrame(c.conn)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		if len(payload) < 9 {
			c.fail(ErrMalformedFrame)
			return
		}
		id := binary.LittleEndian.Uint64(payload[:8])
		status := payload[8]
		body := payload[9:]
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- response{status: status, body: body}
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// ErrTimeout is returned by CallTimeout when the deadline elapses before
// the response arrives. The call's response, if it ever arrives, is
// discarded.
var ErrTimeout = errors.New("rpc: call timed out")

// RemoteError is an application-level failure reported by the remote
// handler. The transport round-trip itself succeeded, so a RemoteError is
// proof of connectivity — retry layers must not treat it as a transport
// fault (see IsTransient).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// IsTransient reports whether err could plausibly be cured by retrying on
// a fresh connection: closed or reset transports, timeouts, dial
// failures, and server-busy rejections (ErrBusy — the server is alive,
// just saturated; backing off and retrying is exactly right). Repository
// manifest contention (repo.ErrManifestContention wraps ErrBusy) rides
// the same classification: every failed CAS means another writer
// committed, so the losing agent should back off and retry, not fail
// its run. Placement redirects (RedirectError) are transient too: the
// server is healthy, the call just belongs on the replica the error
// names. Application-level RemoteErrors, oversized frames (a local
// encoding bug), and an open circuit breaker are not transient.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrCircuitOpen) && !errors.Is(err, ErrFrameTooLarge)
}

// send registers a pending entry and writes the request frame, returning
// the id and the buffered response channel to wait on.
func (c *Client) send(method string, body []byte) (uint64, chan response, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan response, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := c.writeRequest(id, method, body)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return id, ch, nil
}

// writeRequest frames one request (length prefix included) into the
// client's reused write buffer and ships it with a single conn.Write.
// Callers hold writeMu.
func (c *Client) writeRequest(id uint64, method string, body []byte) error {
	n := 8 + 2 + len(method) + len(body)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := c.writeBuf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(method)))
	buf = append(buf, method...)
	buf = append(buf, body...)
	c.writeBuf = buf
	_, err := c.conn.Write(buf)
	return err
}

func (c *Client) finish(resp response, ok bool) ([]byte, error) {
	if !ok {
		return nil, c.clientErr()
	}
	switch resp.status {
	case statusOK:
		return resp.body, nil
	case statusBusy:
		return nil, fmt.Errorf("%w: %s", ErrBusy, string(resp.body))
	case statusRedirect:
		return nil, &RedirectError{Endpoint: string(resp.body)}
	default:
		return nil, &RemoteError{Msg: string(resp.body)}
	}
}

// CallTimeout is Call with a deadline. A zero or negative timeout means
// wait forever (identical to Call). On timeout the pending entry is
// deregistered immediately — no goroutine or map entry lingers until
// connection death — and a late response, if one arrives, is dropped by
// the receive loop.
func (c *Client) CallTimeout(method string, body []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		return c.Call(method, body)
	}
	id, ch, err := c.send(method, body)
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		return c.finish(resp, ok)
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
	}
}

// Call invokes method with body and waits for the response.
func (c *Client) Call(method string, body []byte) ([]byte, error) {
	_, ch, err := c.send(method, body)
	if err != nil {
		return nil, err
	}
	resp, ok := <-ch
	return c.finish(resp, ok)
}

func (c *Client) clientErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// Close tears down the connection; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}

// --- framing -------------------------------------------------------------

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// readFrameInto is readFrame with caller-owned buffer reuse: the payload
// lands in *buf (grown as needed) and the returned slice aliases it —
// valid only until the next call with the same buffer.
func readFrameInto(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func requestFrame(id uint64, method string, body []byte) []byte {
	buf := make([]byte, 0, 8+2+len(method)+len(body))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], id)
	buf = append(buf, u64[:]...)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(method)))
	buf = append(buf, u16[:]...)
	buf = append(buf, method...)
	buf = append(buf, body...)
	return buf
}

func responseFrame(id uint64, status byte, body []byte) []byte {
	buf := make([]byte, 0, 8+1+len(body))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], id)
	buf = append(buf, u64[:]...)
	buf = append(buf, status)
	buf = append(buf, body...)
	return buf
}

func splitRequest(payload []byte) (id uint64, method string, body []byte, err error) {
	if len(payload) < 10 {
		return 0, "", nil, ErrMalformedFrame
	}
	id = binary.LittleEndian.Uint64(payload[:8])
	mlen := int(binary.LittleEndian.Uint16(payload[8:10]))
	if len(payload) < 10+mlen {
		return 0, "", nil, ErrMalformedFrame
	}
	method = string(payload[10 : 10+mlen])
	body = payload[10+mlen:]
	return id, method, body, nil
}

// Pipe wires a client directly to a server in-process and returns the
// stub. The connection closes when either side closes.
func Pipe(s *Server) *Client {
	cc, sc := net.Pipe()
	go s.ServeConn(sc)
	return NewClient(cc)
}
