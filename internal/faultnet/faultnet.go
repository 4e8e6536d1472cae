// Package faultnet injects deterministic, seedable faults into the
// transport and storage layers so the rest of the system can prove it
// degrades gracefully instead of dying.
//
// TPUPoint-Profiler runs for hours against a remote Cloud TPU over gRPC
// and streams records to Cloud Storage; real deployments see flaky
// networks, slow endpoints, and storage hiccups. This package wraps a
// net.Conn with scripted faults (added latency, drop-after-N operations,
// single-bit corruption, chunked and truncated writes), wraps a dial
// function with partition windows that fail whole ranges of dial attempts,
// and decorates a storage bucket with transient Put failures, slow writes,
// and full stalls. Every fault is driven by operation counters and a
// prng.Source seed — never the wall clock — so a failing test replays
// bit-for-bit.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/prng"
)

// Errors produced by injected faults. They deliberately look like the
// errors real networks produce: opaque, transient, and unhelpful.
var (
	// ErrInjectedDrop is returned once a connection passes its scripted
	// drop point; the underlying conn is closed as a side effect.
	ErrInjectedDrop = errors.New("faultnet: connection dropped (injected)")

	// ErrPartition is returned by Dialer.Next for dial attempts that land
	// inside a partition window.
	ErrPartition = errors.New("faultnet: network partitioned (injected)")
)

// Config scripts the faults a single Conn carries. The zero value injects
// nothing: a zero-Config Conn is a transparent pass-through.
//
// All counters are operation counts on THIS conn, starting at 1 for the
// first operation, so "DropAfterWrites: 4" means the first four Write
// calls succeed and the fifth fails.
type Config struct {
	// Seed keys the conn's private PRNG (bit positions for corruption).
	// Two conns with equal Config produce identical fault streams.
	Seed uint64

	// ReadLatency and WriteLatency are added before every matching
	// operation — a slow or congested link.
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// DropAfterReads / DropAfterWrites close the connection after that
	// many successful operations of the given kind; the next one returns
	// ErrInjectedDrop. Zero disables.
	DropAfterReads  int64
	DropAfterWrites int64

	// DropAfterReadBytes / DropAfterWriteBytes drop on byte totals
	// instead of call counts — the mid-frame disconnect. Zero disables.
	DropAfterReadBytes  int64
	DropAfterWriteBytes int64

	// CorruptReadAt / CorruptWriteAt flip one pseudo-random bit in the
	// Nth byte (1-based, counted across the conn's whole stream) of the
	// read or write direction. Zero disables. One-shot.
	CorruptReadAt  int64
	CorruptWriteAt int64

	// MaxWriteChunk splits every Write into inner writes of at most this
	// many bytes. The write still completes — it exercises the peer's
	// frame reassembly under pathological packetization. Zero disables.
	MaxWriteChunk int

	// TruncateWriteAt silently discards everything past the Nth byte
	// (1-based) of the write stream while reporting success to the
	// caller — trailing bytes lost in flight, leaving the peer holding a
	// truncated frame. Zero disables. One-shot: later writes resume.
	TruncateWriteAt int64
}

// Conn wraps a net.Conn with the faults scripted in its Config.
// It is safe for one concurrent reader plus one concurrent writer,
// matching net.Conn's own contract.
type Conn struct {
	inner net.Conn
	cfg   Config

	mu         sync.Mutex
	rng        *prng.Source
	reads      int64
	writes     int64
	readBytes  int64
	writeBytes int64
	dropped    bool
}

// Wrap decorates inner with cfg's faults.
func Wrap(inner net.Conn, cfg Config) *Conn {
	return &Conn{inner: inner, cfg: cfg, rng: prng.New(cfg.Seed)}
}

// Stats reports how many operations and bytes have flowed through, for
// assertions about where a fault fired.
func (c *Conn) Stats() (reads, writes, readBytes, writeBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.writes, c.readBytes, c.writeBytes
}

// drop closes the inner conn and latches the dropped state.
func (c *Conn) drop() error {
	c.dropped = true
	c.inner.Close()
	return ErrInjectedDrop
}

func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, ErrInjectedDrop
	}
	if c.cfg.DropAfterReads > 0 && c.reads >= c.cfg.DropAfterReads {
		err := c.drop()
		c.mu.Unlock()
		return 0, err
	}
	if c.cfg.DropAfterReadBytes > 0 && c.readBytes >= c.cfg.DropAfterReadBytes {
		err := c.drop()
		c.mu.Unlock()
		return 0, err
	}
	lat := c.cfg.ReadLatency
	c.mu.Unlock()

	if lat > 0 {
		time.Sleep(lat)
	}
	n, err := c.inner.Read(b)

	c.mu.Lock()
	defer c.mu.Unlock()
	if n > 0 {
		c.reads++
		// Corrupt before advancing readBytes so the offset math is over
		// the stream position at which this chunk begins.
		if at := c.cfg.CorruptReadAt; at > 0 && c.readBytes < at && at <= c.readBytes+int64(n) {
			b[at-c.readBytes-1] ^= 1 << (c.rng.Uint64() % 8)
		}
		c.readBytes += int64(n)
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, ErrInjectedDrop
	}
	if c.cfg.DropAfterWrites > 0 && c.writes >= c.cfg.DropAfterWrites {
		err := c.drop()
		c.mu.Unlock()
		return 0, err
	}
	if c.cfg.DropAfterWriteBytes > 0 && c.writeBytes >= c.cfg.DropAfterWriteBytes {
		err := c.drop()
		c.mu.Unlock()
		return 0, err
	}
	c.writes++
	start := c.writeBytes
	c.writeBytes += int64(len(b))
	lat := c.cfg.WriteLatency
	cfg := c.cfg

	// Work on a copy: corruption and truncation must not mutate the
	// caller's buffer.
	out := make([]byte, len(b))
	copy(out, b)
	if at := cfg.CorruptWriteAt; at > 0 && start < at && at <= start+int64(len(out)) {
		out[at-start-1] ^= 1 << (c.rng.Uint64() % 8)
	}
	c.mu.Unlock()

	if lat > 0 {
		time.Sleep(lat)
	}
	if at := cfg.TruncateWriteAt; at > 0 && start+int64(len(out)) > at {
		keep := at - start
		if keep < 0 {
			keep = 0
		}
		out = out[:keep]
	}
	if err := c.writeChunked(out, cfg.MaxWriteChunk); err != nil {
		return 0, err
	}
	// Report the full length even when truncating: the fault is silent
	// byte loss, not a short-write error the caller could handle.
	return len(b), nil
}

func (c *Conn) writeChunked(b []byte, chunk int) error {
	if chunk <= 0 || chunk >= len(b) {
		if len(b) == 0 {
			return nil
		}
		_, err := c.inner.Write(b)
		return err
	}
	for len(b) > 0 {
		n := chunk
		if n > len(b) {
			n = len(b)
		}
		if _, err := c.inner.Write(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.dropped = true
	c.mu.Unlock()
	return c.inner.Close()
}

func (c *Conn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Dialer scripts faults across successive dial attempts: whole attempts
// that fail (partition windows) and per-connection fault configs for the
// attempts that succeed. It is the reconnect path's test double — a
// redialing client pointed at a Dialer experiences a deterministic
// sequence of flaky connections.
type Dialer struct {
	// Dial produces a fresh underlying connection (e.g. one side of a
	// net.Pipe wired to a live server, or a TCP dial).
	Dial func() (net.Conn, error)

	// Partitions lists inclusive 1-based attempt ranges that fail with
	// ErrPartition without touching Dial: {{2, 4}} makes attempts 2, 3
	// and 4 fail.
	Partitions [][2]int

	// Faults, when non-nil, returns the fault Config for the conn
	// produced by the given attempt number (1-based).
	Faults func(attempt int) Config

	mu       sync.Mutex
	attempts int
}

// Next performs the next scripted dial attempt. It has the shape of an
// rpc.EndpointDialFunc and ignores the endpoint name, so a redialing
// client over any endpoint set can take it as its DialEndpoint.
func (d *Dialer) Next(string) (net.Conn, error) {
	d.mu.Lock()
	d.attempts++
	n := d.attempts
	d.mu.Unlock()

	for _, w := range d.Partitions {
		if n >= w[0] && n <= w[1] {
			return nil, fmt.Errorf("%w: dial attempt %d in window [%d,%d]", ErrPartition, n, w[0], w[1])
		}
	}
	conn, err := d.Dial()
	if err != nil {
		return nil, err
	}
	if d.Faults != nil {
		return Wrap(conn, d.Faults(n)), nil
	}
	return conn, nil
}

// Attempts reports how many times Next has been called.
func (d *Dialer) Attempts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.attempts
}
