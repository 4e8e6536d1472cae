package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/storage"
)

// pipePair returns a faulty client side wired to a plain server side.
func pipePair(cfg Config) (*Conn, net.Conn) {
	c, s := net.Pipe()
	return Wrap(c, cfg), s
}

// echo copies everything the peer writes back to it until error. Only
// safe when the writer reads back between writes — net.Pipe is fully
// synchronous. Write-only tests use drain instead.
func echo(conn net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if _, werr := conn.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// drain discards everything the peer writes until error.
func drain(conn net.Conn) {
	io.Copy(io.Discard, conn)
}

func TestZeroConfigPassThrough(t *testing.T) {
	c, s := pipePair(Config{})
	go echo(s)
	defer c.Close()

	msg := []byte("hello tpu")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip corrupted: %q", got)
	}
}

func TestDropAfterWrites(t *testing.T) {
	c, s := pipePair(Config{DropAfterWrites: 2})
	go drain(s)

	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d failed early: %v", i+1, err)
		}
	}
	if _, err := c.Write([]byte("boom")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("third write err = %v, want ErrInjectedDrop", err)
	}
	// The drop latches: reads fail too.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("read after drop err = %v", err)
	}
}

func TestDropAfterReadBytes(t *testing.T) {
	c, s := pipePair(Config{DropAfterReadBytes: 4})
	go func() {
		s.Write([]byte("12345678"))
	}()
	var total int
	var err error
	buf := make([]byte, 2)
	for {
		var n int
		n, err = c.Read(buf)
		total += n
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("err = %v, want ErrInjectedDrop", err)
	}
	if total > 4 {
		t.Fatalf("read %d bytes past the 4-byte drop point", total)
	}
}

func TestCorruptReadAtIsDeterministic(t *testing.T) {
	run := func() []byte {
		c, s := pipePair(Config{Seed: 7, CorruptReadAt: 3})
		defer c.Close()
		go func() { s.Write([]byte{0, 0, 0, 0, 0}) }()
		got := make([]byte, 5)
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different corruption: %v vs %v", a, b)
	}
	if a[2] == 0 {
		t.Fatalf("byte 3 not corrupted: %v", a)
	}
	for i, v := range a {
		if i != 2 && v != 0 {
			t.Fatalf("byte %d corrupted unexpectedly: %v", i+1, a)
		}
	}
}

func TestCorruptWriteAtDoesNotMutateCallerBuffer(t *testing.T) {
	c, s := pipePair(Config{Seed: 1, CorruptWriteAt: 1})
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 4)
		io.ReadFull(s, buf)
		got <- buf
	}()
	msg := []byte{9, 9, 9, 9}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, []byte{9, 9, 9, 9}) {
		t.Fatalf("caller buffer mutated: %v", msg)
	}
	out := <-got
	if out[0] == 9 {
		t.Fatalf("first byte not corrupted on the wire: %v", out)
	}
}

func TestTruncateWriteAt(t *testing.T) {
	c, s := pipePair(Config{TruncateWriteAt: 3})
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := s.Read(buf)
		done <- buf[:n]
	}()
	n, err := c.Write([]byte("abcdefgh"))
	if err != nil || n != 8 {
		t.Fatalf("truncating write reported (%d, %v), want silent success", n, err)
	}
	if got := <-done; string(got) != "abc" {
		t.Fatalf("peer saw %q, want %q", got, "abc")
	}
}

func TestChunkedWritesArriveWhole(t *testing.T) {
	c, s := pipePair(Config{MaxWriteChunk: 3})
	defer c.Close()
	msg := bytes.Repeat([]byte("xyz"), 10)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		io.ReadFull(s, buf)
		got <- buf
	}()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if out := <-got; !bytes.Equal(out, msg) {
		t.Fatal("chunked write lost bytes")
	}
}

func TestWriteLatency(t *testing.T) {
	c, s := pipePair(Config{WriteLatency: 20 * time.Millisecond})
	go drain(s)
	defer c.Close()
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("write returned after %v, want >= 20ms", d)
	}
}

func TestDialerPartitionWindow(t *testing.T) {
	d := &Dialer{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			go drain(s)
			return c, nil
		},
		Partitions: [][2]int{{2, 3}},
	}
	for attempt := 1; attempt <= 4; attempt++ {
		conn, err := d.Next("")
		inWindow := attempt == 2 || attempt == 3
		if inWindow {
			if !errors.Is(err, ErrPartition) {
				t.Fatalf("attempt %d: err = %v, want ErrPartition", attempt, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		conn.Close()
	}
	if d.Attempts() != 4 {
		t.Fatalf("attempts = %d", d.Attempts())
	}
}

func TestDialerPerAttemptFaults(t *testing.T) {
	d := &Dialer{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			go drain(s)
			return c, nil
		},
		Faults: func(attempt int) Config {
			if attempt == 1 {
				return Config{DropAfterWrites: 1}
			}
			return Config{}
		},
	}
	c1, err := d.Next("")
	if err != nil {
		t.Fatal(err)
	}
	c1.Write([]byte("a"))
	if _, err := c1.Write([]byte("b")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("first conn survived its scripted drop: %v", err)
	}
	c2, err := d.Next("")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 5; i++ {
		if _, err := c2.Write([]byte("ok")); err != nil {
			t.Fatalf("healthy second conn failed: %v", err)
		}
	}
}

func TestFlakyStoreFailFirstThenRecovers(t *testing.T) {
	svc := storage.NewService()
	b, _ := svc.CreateBucket("x")
	fs := &FlakyStore{Inner: b, FailFirst: 2}

	for i := 0; i < 2; i++ {
		if _, err := fs.Put("o", []byte("v")); !errors.Is(err, ErrTransientStorage) {
			t.Fatalf("put %d err = %v, want ErrTransientStorage", i+1, err)
		}
	}
	if _, err := fs.Put("o", []byte("v")); err != nil {
		t.Fatalf("store did not recover: %v", err)
	}
	if fs.Puts() != 3 || fs.Fails() != 2 {
		t.Fatalf("puts=%d fails=%d", fs.Puts(), fs.Fails())
	}
	if !b.Exists("o") {
		t.Fatal("recovered put not persisted")
	}
}

func TestFlakyStoreFailEvery(t *testing.T) {
	svc := storage.NewService()
	b, _ := svc.CreateBucket("x")
	fs := &FlakyStore{Inner: b, FailEvery: 3}
	var fails int
	for i := 0; i < 9; i++ {
		if _, err := fs.Put("o", nil); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("fails = %d, want 3 (every 3rd of 9)", fails)
	}
}

func TestFlakyStoreStall(t *testing.T) {
	svc := storage.NewService()
	b, _ := svc.CreateBucket("x")
	stall := make(chan struct{})
	fs := &FlakyStore{Inner: b, Stall: stall}

	done := make(chan error, 1)
	go func() {
		_, err := fs.Put("o", nil)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("stalled Put returned early")
	case <-time.After(30 * time.Millisecond):
	}
	close(stall)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
