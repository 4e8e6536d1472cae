// Package profiler implements TPUPoint-Profiler, the core of the TPUPoint
// toolchain (Section III).
//
// On Start, the profiler launches a dedicated profiling goroutine that
// periodically requests profiles from the TPU's profile service,
// independent of the training loop — training continues uninterrupted
// while profiling takes place. Each window (raw events plus idle/MXU
// metadata) is reduced to a statistical ProfileRecord while it is read, a
// segment or chunk at a time, which keeps memory bounded: the profiler
// never holds a window's raw events.
//
// If the analyzer flag is set on Start (the paper's Figure 2 API), a
// second recording goroutine streams each record to Cloud Storage while
// the profiling goroutine keeps requesting the next window. Stop sends the
// final request, drains both goroutines, and returns the records.
package profiler

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/tpu"
	"repro/internal/trace"
)

// Client fetches the next profile window reduced to a record.
// Implementations exist for the in-process service and the RPC transport;
// both fold the window's events into a trace.Reducer, so the profiler
// never holds a window's raw events.
type Client interface {
	// NextProfile returns the next window, its record numbered seq.
	NextProfile(seq int64) (Window, error)
}

// Window is one profile window as a Client returns it.
type Window struct {
	// Record is the window's record: nil when the window held no events.
	Record      *trace.ProfileRecord
	EndOfStream bool // training finished and all events delivered
}

// window finishes the record red has reduced from the window resp
// describes, with the service's truncation and watermark; a nil red
// reduced nothing.
func window(red *trace.Reducer, resp *tpu.ProfileResponse) Window {
	w := Window{EndOfStream: resp.EndOfStream}
	if red != nil {
		rec := red.Record(resp.IdleFrac, resp.MXUUtil)
		rec.Truncated = rec.Truncated || resp.Truncated
		rec.OpenStep = resp.OpenStep
		w.Record = rec
	}
	return w
}

// ServiceClient profiles an in-process tpu.ProfileService, reducing each
// window a segment at a time as the service reads it: a device run is
// summed from its durations, and no device event is built.
type ServiceClient struct {
	Service *tpu.ProfileService
}

// NextProfile implements Client.
func (c *ServiceClient) NextProfile(seq int64) (Window, error) {
	var red *trace.Reducer
	resp := c.Service.ReadSegments(func(resp *tpu.ProfileResponse, seg trace.Segment) {
		if red == nil {
			red = trace.NewReducer(seq, resp.WindowStart)
		}
		red.AddSegment(seg)
	})
	return window(red, &resp), nil
}

// RPCClient profiles a remote service over the rpc transport — the
// client-to-master gRPC call path of the real tool. Conn may be a plain
// *rpc.Client or a *rpc.ReconnectClient for the resilient path. A client
// serves one profiler: NextProfile must not be called concurrently.
type RPCClient struct {
	Conn rpc.Caller

	buf   []trace.Event     // the decode chunk, rpcChunkEvents long once used
	names map[string]string // the names decoded so far, interned
}

// rpcChunkEvents is the length of the chunk RPCClient decodes a window's
// events into, 48 KiB; rpcNames bounds the names it interns, so a server
// sending ever new names cannot grow the table without limit.
const (
	rpcChunkEvents = 1024
	rpcNames       = 4096
)

// NextProfile implements Client: it decodes the response's fields, then
// its events a chunk at a time into the window's Reducer, so a window of
// any length costs the client one chunk and its distinct names.
func (c *RPCClient) NextProfile(seq int64) (Window, error) {
	raw, err := c.Conn.Call(tpu.MethodProfile, nil)
	if err != nil {
		return Window{}, err
	}
	if c.buf == nil || len(c.names) > rpcNames {
		c.buf = make([]trace.Event, rpcChunkEvents)
		c.names = make(map[string]string)
	}
	// The window's start follows its events on the wire, so the batch is
	// reduced once the whole response is read. A response with more than
	// one events field is decoded as its last, and each earlier one must
	// decode too.
	var events []byte
	resp, err := tpu.ReadProfileResponse(raw, func(_ *tpu.ProfileResponse, batch []byte) error {
		if events != nil {
			if err := trace.DecodeEvents(events, c.buf, c.names, func([]trace.Event) {}); err != nil {
				return err
			}
		}
		events = batch
		return nil
	})
	if err != nil {
		return Window{}, err
	}
	var red *trace.Reducer
	err = trace.DecodeEvents(events, c.buf, c.names, func(chunk []trace.Event) {
		if red == nil {
			red = trace.NewReducer(seq, resp.WindowStart)
		}
		red.Add(chunk)
	})
	if err != nil {
		return Window{}, err
	}
	return window(red, resp), nil
}

// RecordStore is where the recording thread persists records. It is the
// Put subset of *storage.Bucket so fault-injecting decorators (see
// internal/faultnet) can stand in for the real bucket.
type RecordStore interface {
	Put(name string, data []byte) (*storage.Object, error)
}

// recordPrefix is where the recording thread names its objects: one
// record-%06d object per record, numbered in persist order.
const recordPrefix = "profiles/"

// ErrPutTimeout marks a storage write abandoned after Options.PutTimeout.
var ErrPutTimeout = errors.New("profiler: storage put timed out")

// Options configure a profiler.
type Options struct {
	// Interval is the wall-clock pause between profile requests when the
	// last window was empty (training hasn't produced new activity).
	// Defaults to 200µs — the simulation runs faster than real time.
	Interval time.Duration

	// Bucket receives serialized records when the analyzer flag is set.
	Bucket RecordStore

	// BreakpointStep, when positive, ends profiling once a record covers
	// this training step — the paper's "user-specified breakpoint": the
	// profiling thread sends its final request and shuts down even
	// though training continues.
	BreakpointStep int64

	// MaxRetries is how many times a failed profile request is retried
	// (with backoff) before the window is declared lost and a Gap record
	// is emitted. Default 2; negative disables retries.
	MaxRetries int

	// Backoff is the delay before the first retry, doubling per attempt.
	// Defaults to Interval.
	Backoff time.Duration

	// MaxGaps bounds consecutive lost windows: one more and the profiler
	// gives up with the underlying error. Default 4; negative means a
	// single lost window is fatal (the pre-resilience behavior).
	MaxGaps int

	// OnDegraded, when set, is invoked every time the profiler loses
	// data but keeps going: a window lost to transport faults (a Gap
	// record was emitted), a record dropped from the persist queue, or
	// recording abandoned after storage failures. It may be called from
	// the profiling or the recording goroutine; it must not block.
	OnDegraded func(err error)

	// PutRetries is how many times a failed record write is retried with
	// backoff before recording degrades to in-memory only. Default 2;
	// negative disables retries.
	PutRetries int

	// PutTimeout bounds each storage write; a write exceeding it is
	// abandoned in the background and counts as a failure, so a stalled
	// store can never wedge Stop. Zero means no bound.
	PutTimeout time.Duration

	// QueueSize bounds the profiling→recording handoff queue (default
	// 64). When the queue is full the record is kept in memory only and
	// OnDegraded fires — the profiling thread never blocks on storage.
	QueueSize int

	// Obs, when set, receives the profiler's metrics and degradation
	// events (see the README's metric catalogue). Nil disables
	// observability at zero cost.
	Obs *obs.Registry
}

// metrics are the profiler's obs instruments; with a nil registry every
// handle is nil and every operation a no-op.
type metrics struct {
	windowsFetched *obs.Counter // non-empty windows reduced to records
	windowsEmpty   *obs.Counter // polls that returned no new activity
	windowsLost    *obs.Counter // windows lost to faults (Gap records)
	reqRetries     *obs.Counter // profile-request retry attempts
	reqLatency     *obs.Histogram
	recsPersisted  *obs.Counter // records written to storage
	recsDropped    *obs.Counter // records not persisted: queue full
	putRetries     *obs.Counter // storage-write retry attempts
	putTimeouts    *obs.Counter // writes abandoned at PutTimeout
	putLatency     *obs.Histogram
	memoryOnly     *obs.Counter // times recording degraded to memory-only
	degraded       *obs.Counter // every OnDegraded-worthy incident
	queueDepth     *obs.Gauge
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		windowsFetched: r.Counter("profiler.windows.fetched"),
		windowsEmpty:   r.Counter("profiler.windows.empty"),
		windowsLost:    r.Counter("profiler.windows.lost"),
		reqRetries:     r.Counter("profiler.request.retries"),
		reqLatency:     r.Histogram("profiler.request.latency_us"),
		recsPersisted:  r.Counter("profiler.records.persisted"),
		recsDropped:    r.Counter("profiler.records.dropped"),
		putRetries:     r.Counter("profiler.put.retries"),
		putTimeouts:    r.Counter("profiler.put.timeouts"),
		putLatency:     r.Histogram("profiler.put.latency_us"),
		memoryOnly:     r.Counter("profiler.recording.memory_only"),
		degraded:       r.Counter("profiler.degraded"),
		queueDepth:     r.Gauge("profiler.queue.depth"),
	}
}

// Profiler is the TPUPoint-Profiler front end (the paper's Figure 2
// tpprofiler object).
type Profiler struct {
	client Client
	opts   Options
	m      metrics

	mu       sync.Mutex
	started  bool
	stopping bool
	records  []*trace.ProfileRecord
	err      error

	recCh  chan *trace.ProfileRecord
	doneCh chan struct{}
	recWG  sync.WaitGroup
}

// New builds a profiler over a profile client.
func New(client Client, opts Options) *Profiler {
	if opts.Interval <= 0 {
		opts.Interval = 200 * time.Microsecond
	}
	if opts.Backoff <= 0 {
		opts.Backoff = opts.Interval
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.MaxGaps == 0 {
		opts.MaxGaps = 4
	} else if opts.MaxGaps < 0 {
		opts.MaxGaps = 0
	}
	if opts.PutRetries == 0 {
		opts.PutRetries = 2
	} else if opts.PutRetries < 0 {
		opts.PutRetries = 0
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 64
	}
	return &Profiler{client: client, opts: opts, m: newMetrics(opts.Obs)}
}

// Start launches the profiling goroutine. With analyzer=true a recording
// goroutine persists every record to the bucket for post-execution
// analysis; with analyzer=false records are only buffered in memory (the
// optimizer-only mode).
func (p *Profiler) Start(analyzer bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return errors.New("profiler: already started")
	}
	if analyzer && p.opts.Bucket == nil {
		return errors.New("profiler: analyzer mode needs a storage bucket")
	}
	p.started = true
	p.doneCh = make(chan struct{})
	if analyzer {
		p.recCh = make(chan *trace.ProfileRecord, p.opts.QueueSize)
		p.recWG.Add(1)
		go p.recordLoop(p.recCh)
	}
	go p.profileLoop()
	return nil
}

// profileLoop is the profiling thread: request a reduced window, hand
// its record off, repeat.
// A request that keeps failing after retries costs one window — a Gap
// record marks the hole and the loop presses on — until the error is
// fatal or MaxGaps consecutive windows are lost.
func (p *Profiler) profileLoop() {
	defer close(p.doneCh)
	seq := int64(0)
	gaps := 0
	for {
		// Read before the request: only a window requested after Stop
		// began sees all the activity training produced, so only an empty
		// one of those may end the loop.
		final := p.isStopping()
		w, err := p.nextProfile(seq)
		if err != nil {
			if isFatal(err) || gaps >= p.opts.MaxGaps {
				p.opts.Obs.Emit("profiler", "fatal", err.Error())
				p.fail(fmt.Errorf("profiler: profile request: %w", err))
				break
			}
			gaps++
			p.m.windowsLost.Inc()
			gap := &trace.ProfileRecord{Seq: seq, Gap: true}
			seq++
			p.deliver(gap)
			p.opts.Obs.Emit("profiler", "window-lost",
				fmt.Sprintf("seq=%d consecutive=%d: %v", gap.Seq, gaps, err))
			p.degraded(fmt.Errorf("profiler: window %d lost (%d consecutive): %w", gap.Seq, gaps, err))
			time.Sleep(p.opts.Interval)
			continue
		}
		gaps = 0
		breakpointHit := false
		rec := w.Record
		if rec == nil {
			p.m.windowsEmpty.Inc()
		} else {
			p.m.windowsFetched.Inc()
			seq++
			p.deliver(rec)
			if bp := p.opts.BreakpointStep; bp > 0 {
				for _, s := range rec.Steps {
					if s.Step >= bp {
						breakpointHit = true
						break
					}
				}
			}
		}
		if w.EndOfStream || breakpointHit {
			break
		}
		if rec == nil {
			if final {
				// Final request made and nothing new arrived: done.
				break
			}
			time.Sleep(p.opts.Interval)
		}
	}
	p.mu.Lock()
	ch := p.recCh
	p.recCh = nil
	p.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// nextProfile requests the next window, its record numbered seq,
// retrying transient failures up to MaxRetries with doubling backoff.
// Fatal errors and Stop cut retries short.
func (p *Profiler) nextProfile(seq int64) (Window, error) {
	var lastErr error
	for attempt := 0; attempt <= p.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			p.m.reqRetries.Inc()
			time.Sleep(p.opts.Backoff << (attempt - 1))
		}
		start := time.Now()
		w, err := p.client.NextProfile(seq)
		p.m.reqLatency.ObserveSince(start)
		if err == nil {
			return w, nil
		}
		lastErr = err
		if isFatal(err) {
			break
		}
	}
	return Window{}, lastErr
}

// isFatal separates errors no retry can cure (an open circuit breaker,
// an application-level remote error) from transient transport faults.
func isFatal(err error) bool {
	return !rpc.IsTransient(err)
}

func (p *Profiler) isStopping() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopping
}

// deliver appends rec to the in-memory stream and hands it to the
// recording thread without ever blocking: if the persist queue is full
// (storage stalled or slow), the record stays in memory only and the
// degradation is reported. The profiling thread's cadence is sacred —
// per the paper, profiling must not perturb training.
func (p *Profiler) deliver(rec *trace.ProfileRecord) {
	p.mu.Lock()
	p.records = append(p.records, rec)
	ch := p.recCh
	p.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- rec:
		p.m.queueDepth.Set(int64(len(ch)))
	default:
		p.m.recsDropped.Inc()
		p.opts.Obs.Emit("profiler", "record-dropped",
			fmt.Sprintf("seq=%d persist queue full", rec.Seq))
		p.degraded(fmt.Errorf("profiler: record %d not persisted: queue full", rec.Seq))
	}
}

// recordLoop is the recording thread: persist records as they arrive so
// the profiling thread can keep requesting the next profile. Writes are
// retried with backoff; if one still fails, recording degrades to
// in-memory only but keeps draining the channel so the profiling thread
// can never block on a dead recorder.
//
// Storage death is a *degradation*, not a failure: every record is still
// held in memory and returned by Stop, so the run's data is intact. It is
// reported through OnDegraded and the obs counters; fail() is reserved
// for unrecoverable profile-loop errors that actually lose data.
func (p *Profiler) recordLoop(ch <-chan *trace.ProfileRecord) {
	defer p.recWG.Done()
	i := 0
	dead := false
	var buf []byte // reused marshal buffer: one allocation for the run, not one per record
	for rec := range ch {
		p.m.queueDepth.Set(int64(len(ch)))
		if dead {
			continue // drain without persisting
		}
		name := fmt.Sprintf("%srecord-%06d", recordPrefix, i)
		buf = trace.MarshalRecordAppend(buf[:0], rec)
		err := p.putWithRetry(name, buf)
		i++
		if err != nil {
			p.m.memoryOnly.Inc()
			p.opts.Obs.Emit("profiler", "memory-only",
				fmt.Sprintf("recording %s failed; records stay in memory: %v", name, err))
			p.degraded(fmt.Errorf("profiler: recording degraded to memory-only: %w", err))
			dead = true
			continue
		}
		p.m.recsPersisted.Inc()
	}
}

// putWithRetry drives one record's Put through the retry/backoff/timeout
// policy, every attempt under the same name. data may be the loop's
// reused marshal buffer; when a timeout could leave an abandoned writer
// still reading it, timedPut copies first.
func (p *Profiler) putWithRetry(name string, data []byte) error {
	var lastErr error
	for attempt := 0; attempt <= p.opts.PutRetries; attempt++ {
		if attempt > 0 {
			p.m.putRetries.Inc()
			time.Sleep(p.opts.Backoff << (attempt - 1))
		}
		start := time.Now()
		err := p.timedPut(name, data)
		p.m.putLatency.ObserveSince(start)
		if err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// timedPut bounds one storage write by PutTimeout. A write that overruns
// is abandoned in a background goroutine (the store may complete it
// later; the in-memory store's Put is cheap enough that the leak is
// bounded by the retry budget) and reported as ErrPutTimeout. The
// abandoned goroutine gets a private copy of data so the recording loop
// can keep reusing its marshal buffer.
func (p *Profiler) timedPut(name string, data []byte) error {
	if p.opts.PutTimeout <= 0 {
		_, err := p.opts.Bucket.Put(name, data)
		return err
	}
	owned := append([]byte(nil), data...)
	done := make(chan error, 1)
	go func() {
		_, err := p.opts.Bucket.Put(name, owned)
		done <- err
	}()
	timer := time.NewTimer(p.opts.PutTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		p.m.putTimeouts.Inc()
		return fmt.Errorf("%w: %s after %v", ErrPutTimeout, name, p.opts.PutTimeout)
	}
}

// fail accumulates goroutine failures. Concurrent failures from the
// profiling and recording threads are joined, never shadowed.
func (p *Profiler) fail(err error) {
	p.mu.Lock()
	p.err = errors.Join(p.err, err)
	p.mu.Unlock()
}

func (p *Profiler) degraded(err error) {
	p.m.degraded.Inc()
	if cb := p.opts.OnDegraded; cb != nil {
		cb(err)
	}
}

// Stop sends the final profile request, waits for both goroutines to
// drain, and returns the collected records.
//
// The returned error covers unrecoverable profile-loop failures only (a
// fatal transport error, MaxGaps exceeded). Storage-side degradation —
// recording having fallen back to memory-only, dropped persists, put
// timeouts — does NOT surface here: every record is still returned, and
// the degradation is visible through OnDegraded and the obs counters.
func (p *Profiler) Stop() ([]*trace.ProfileRecord, error) {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return nil, errors.New("profiler: not started")
	}
	p.stopping = true
	done := p.doneCh
	p.mu.Unlock()

	<-done
	p.recWG.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.started = false
	p.stopping = false
	return p.records, p.err
}

// Records returns the records collected so far (safe to call while
// profiling; returns a snapshot).
func (p *Profiler) Records() []*trace.ProfileRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*trace.ProfileRecord, len(p.records))
	copy(out, p.records)
	return out
}

// LoadRecords reads persisted records back from storage, ordered by
// sequence number — the input to offline TPUPoint-Analyzer runs. Every
// object under profiles/ must be a record-* object holding one wire
// record; any other name there (an older build's framed batch-* object,
// say) is an error naming it, never decoded as a record. b is any store
// that lists and reads objects: a bucket, or the directory store
// `tpupoint -export` writes.
func LoadRecords(b interface {
	List(prefix string) []string
	Get(name string) (*storage.Object, error)
}) ([]*trace.ProfileRecord, error) {
	names := b.List(recordPrefix)
	out := make([]*trace.ProfileRecord, 0, len(names))
	for _, name := range names {
		if !strings.HasPrefix(name, recordPrefix+"record-") {
			return nil, fmt.Errorf("profiler: %s is not a record object", name)
		}
		obj, err := b.Get(name)
		if err != nil {
			return nil, err
		}
		rec, err := trace.UnmarshalRecord(obj.Data)
		if err != nil {
			return nil, fmt.Errorf("profiler: decoding %s: %w", name, err)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
