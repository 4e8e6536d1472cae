// Fleet collection endpoint: the RPC service that lets N concurrent
// profiler sessions stream records into the repository. This is the
// ROADMAP's "many concurrent profiling sessions" north star — one
// collection server per fleet, each training VM's profiler streaming
// its records in, every finished session becoming an indexed archive.
//
// Resource discipline per session: a bounded record queue (appends
// beyond it get a transient busy error, never unbounded memory), a
// lease that expires abandoned sessions, and obs counters for every
// admission decision. The zero-loss invariant the acceptance test
// checks: fleet.records.in == fleet.records.archived once every
// session finalizes.
package repo

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Fleet RPC method names.
const (
	MethodFleetOpen        = "fleet.Open"
	MethodFleetAppendBatch = "fleet.AppendBatch"
	MethodFleetFinalize    = "fleet.Finalize"
	MethodFleetAbort       = "fleet.Abort"
)

// Fleet option defaults.
const (
	DefaultMaxSessions    = 32
	DefaultQueueSize      = 128
	DefaultEnqueueTimeout = 2 * time.Second
	DefaultLease          = 30 * time.Second
)

// FleetOptions tune the collection endpoint. Zero values take the
// defaults above.
type FleetOptions struct {
	// MaxSessions caps concurrently open sessions; Opens beyond it get
	// a busy error (rpc.ErrBusy → transient, clients back off).
	MaxSessions int
	// QueueSize bounds each session's pending-record queue.
	QueueSize int
	// EnqueueTimeout is how long an Append waits for queue space
	// before returning busy.
	EnqueueTimeout time.Duration
	// Lease expires sessions with no activity (crashed profilers must
	// not pin session slots forever).
	Lease time.Duration
	// Analyzer's Threshold is the OLS threshold each session's stream
	// analyzes at (0 = analyzer.DefaultThreshold; see fleet_stream.go).
	// Nothing else in it is read.
	Analyzer analyzer.Options
	// CompactEvery triggers a background repository compaction pass
	// after every N successful finalizes (0 = never). Passes run off
	// the finalize path — an ack never waits on compaction — and
	// WaitBackground lets shutdown drain them.
	CompactEvery int
	// Obs receives the endpoint's metrics.
	Obs *obs.Registry
	// Now is the lease clock (testing knob; default time.Now).
	Now func() time.Time
	// Replica places this collector inside an N-replica fleet sharing
	// one store (see replica.go): Open/Resume for runs this replica
	// does not own answer with a transient redirect to the owner, and
	// session tokens gain an "r<id>." namespace prefix. Nil means
	// standalone. An invalid config is a programming error — run
	// Validate on operator input before it reaches NewFleet.
	Replica *ReplicaConfig
	// Ingest, when set, routes finalized archives through group-commit
	// ingest lanes (one writer goroutine per owned shard subset)
	// instead of calling Repo.Save inline from each finalize handler.
	Ingest *Ingestor
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.MaxSessions == 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.QueueSize == 0 {
		o.QueueSize = DefaultQueueSize
	}
	if o.EnqueueTimeout == 0 {
		o.EnqueueTimeout = DefaultEnqueueTimeout
	}
	if o.Lease == 0 {
		o.Lease = DefaultLease
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

type fleetMetrics struct {
	opened   *obs.Counter
	active   *obs.Gauge
	expired  *obs.Counter
	rejected *obs.Counter
	recIn    *obs.Counter
	recArch  *obs.Counter
	busy     *obs.Counter
	bytesIn  *obs.Counter
	saved    *obs.Counter
	resumed  *obs.Counter
	// Finalize by part (analysis, then save), and runs left unsummarized.
	summarizeUS  *obs.Histogram
	saveUS       *obs.Histogram
	unsummarized *obs.Counter
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	return fleetMetrics{
		opened:   r.Counter("fleet.sessions.opened"),
		active:   r.Gauge("fleet.sessions.active"),
		expired:  r.Counter("fleet.sessions.expired"),
		rejected: r.Counter("fleet.sessions.rejected"),
		recIn:    r.Counter("fleet.records.in"),
		recArch:  r.Counter("fleet.records.archived"),
		busy:     r.Counter("fleet.appends.busy"),
		bytesIn:  r.Counter("fleet.bytes.in"),
		saved:    r.Counter("fleet.runs.saved"),
		resumed:  r.Counter("fleet.sessions.resumed"),

		summarizeUS:  r.Histogram("fleet.finalize.summarize_us"),
		saveUS:       r.Histogram("fleet.finalize.save_us"),
		unsummarized: r.Counter("fleet.runs.unsummarized"),
	}
}

// Fleet is the collection endpoint. Register it on an rpc.Server and
// point profilers at it through OpenResilient.
type Fleet struct {
	repo *Repo
	opts FleetOptions
	m    fleetMetrics
	sm   streamMetrics

	mu sync.Mutex
	// nextID is epoch<<32 | counter, the epoch drawn at random per Fleet:
	// append, finalize and abort carry only the session id, so an id a
	// previous collector process issued must name no session of this one
	// (it gets "unknown session", which a ResilientClient answers by
	// resuming with its token) rather than whichever client was handed
	// the same small number after the restart.
	nextID   uint64
	sessions map[uint64]*session

	// savedRuns counts successful finalizes for the CompactEvery
	// trigger; bg tracks in-flight background compaction passes.
	savedRuns atomic.Uint64
	bg        sync.WaitGroup
}

// NewFleet builds a collection endpoint writing into repo.
func NewFleet(r *Repo, opts FleetOptions) *Fleet {
	opts = opts.withDefaults()
	if err := opts.Replica.Validate(); err != nil {
		panic(err)
	}
	return &Fleet{
		repo:     r,
		opts:     opts,
		m:        newFleetMetrics(opts.Obs),
		sm:       newStreamMetrics(opts.Obs),
		nextID:   uint64(rand.Uint32())<<32 | 1,
		sessions: make(map[uint64]*session),
	}
}

// Register installs the fleet methods on an RPC server.
func (f *Fleet) Register(s *rpc.Server) {
	s.Register(MethodFleetOpen, f.handleOpen)
	s.Register(MethodFleetAppendBatch, f.handleAppendBatch)
	s.Register(MethodFleetFinalize, f.handleFinalize)
	s.Register(MethodFleetAbort, f.handleAbort)
	s.Register(MethodFleetResume, f.handleResume)
	s.Register(MethodFleetPing, f.handlePing)
}

// session is one in-flight collection stream. It holds a record once,
// as its wire bytes in the archive writer's segment stream (617 B per
// distinct step on the 1000-step resnet recording). Its analysis is the
// streaming analyzer's: the steps at or above the records' watermark and
// one aggregate per phase, from which finalize builds the summary. No
// decoded record outlives the drain's pass over it.
type session struct {
	id    uint64
	token string // durable identity: names sessions/<token>/{meta,log}
	meta  archive.Meta
	w     *archive.Writer

	// stream is the in-flight analyzer, owned by the drain goroutine
	// until done closes; finalize takes it after.
	stream    *analyzer.StreamAnalyzer
	streamErr error // the first record stream refused: the run is archived unsummarized

	ch   chan queued   // bounded pending-record queue
	done chan struct{} // drain goroutine exit

	// sendMu guards enqueue-vs-close: Append holds it across the
	// channel send, Finalize/expiry set closed and close(ch) under it,
	// so a send on a closed channel is impossible.
	sendMu sync.Mutex
	closed bool

	mu         sync.Mutex
	lastActive time.Time
	archived   int64
}

// queued is one accepted record crossing into the drain goroutine: the
// validated wire bytes for the archive writer, plus the decoded form
// the append handler already produced while validating — reused by the
// writer's counts and the streaming analyzer, so the hot path decodes
// each record exactly once.
type queued struct {
	raw []byte
	rec *trace.ProfileRecord
}

// drain is the session's single consumer: it owns the writer and the
// streaming analyzer, so neither needs locking. The writer takes the
// validated wire bytes as they are, and both read the record
// handleAppendBatch decoded from them: one decode per record in the
// session's life, no re-encode.
func (s *session) drain(m fleetMetrics) {
	defer close(s.done)
	for q := range s.ch {
		s.w.AddEncoded(q.raw, q.rec)
		s.fold(q.rec)
		s.mu.Lock()
		s.archived++
		s.mu.Unlock()
		m.recArch.Inc()
	}
}

// fold feeds an archived record to the streaming analyzer, which copies
// what it keeps. The drain and resume's log replay both come through
// here. A refused record broke the OpenStep contract: the analyzer is
// left as it was, so its phases no longer cover every archived record.
func (s *session) fold(rec *trace.ProfileRecord) {
	if err := s.stream.Feed(rec); err != nil && s.streamErr == nil {
		s.streamErr = err
	}
}

func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastActive = now
	s.mu.Unlock()
}

// closeQueue marks the session closed and closes its queue exactly
// once. Safe against concurrent appends.
func (s *session) closeQueue() {
	s.sendMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.sendMu.Unlock()
}

// Wire messages (JSON for control, binary for the append hot path).

// OpenRequest asks for a new collection session.
type OpenRequest struct {
	RunID      string `json:"run_id"`
	Workload   string `json:"workload"`
	Label      string `json:"label,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	HostSpec   string `json:"host_spec,omitempty"`
	TPUVersion string `json:"tpu_version,omitempty"`
}

// OpenResponse returns the session handle plus the durable resume
// token: if the collector restarts mid-session, the client reattaches
// with fleet.Resume and the token instead of losing its records.
type OpenResponse struct {
	SessionID uint64 `json:"session_id"`
	Token     string `json:"token"`
}

type sessionRequest struct {
	SessionID uint64 `json:"session_id"`
}

// sweepExpired evicts sessions idle past the lease. Called at handler
// entry, so an abandoned slot frees the moment anyone else talks to
// the endpoint.
func (f *Fleet) sweepExpired() {
	now := f.opts.Now()
	f.mu.Lock()
	var victims []*session
	for id, s := range f.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastActive)
		s.mu.Unlock()
		if idle > f.opts.Lease {
			delete(f.sessions, id)
			victims = append(victims, s)
		}
	}
	f.m.active.Set(int64(len(f.sessions)))
	f.mu.Unlock()
	for _, s := range victims {
		s.closeQueue()
		<-s.done
		f.m.expired.Inc()
		f.opts.Obs.Emit("fleet", "session-expired",
			fmt.Sprintf("session %d (run %q) idle past lease", s.id, s.meta.RunID))
	}
}

func (f *Fleet) handleOpen(body []byte) ([]byte, error) {
	f.sweepExpired()
	var req OpenRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("fleet: bad open request: %w", err)
	}
	if req.RunID == "" {
		return nil, fmt.Errorf("fleet: open without run_id")
	}
	// Placement before any allocation: a misplaced Open must leave no
	// trace here — the owner allocates the sequence and the session.
	if err := f.placeRun(req.RunID); err != nil {
		return nil, err
	}
	seq, err := f.repo.NextSeq()
	if err != nil {
		return nil, err
	}
	meta := archive.Meta{
		RunID:      req.RunID,
		Workload:   req.Workload,
		Label:      req.Label,
		Tenant:     req.Tenant,
		HostSpec:   req.HostSpec,
		TPUVersion: req.TPUVersion,
		CreatedSeq: seq,
	}
	s := &session{
		token:      f.tokenFor(meta.RunID, meta.CreatedSeq),
		meta:       meta,
		w:          archive.NewWriter(meta),
		stream:     f.newSessionStream(meta),
		ch:         make(chan queued, f.opts.QueueSize),
		done:       make(chan struct{}),
		lastActive: f.opts.Now(),
	}
	if err := f.register(s); err != nil {
		return nil, err
	}
	// Durable identity must exist before the client learns the token;
	// if it can't be written, the session never really opened.
	if err := f.writeSessionMeta(s); err != nil {
		f.mu.Lock()
		delete(f.sessions, s.id)
		f.m.active.Set(int64(len(f.sessions)))
		f.mu.Unlock()
		return nil, err
	}

	go s.drain(f.m)
	f.m.opened.Inc()
	return json.Marshal(OpenResponse{SessionID: s.id, Token: s.token})
}

func (f *Fleet) lookup(id uint64) (*session, error) {
	f.mu.Lock()
	s, ok := f.sessions[id]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown session %d", id)
	}
	return s, nil
}

// enqueue hands one validated record's wire bytes to the session's
// drain goroutine, waiting up to EnqueueTimeout for queue space before
// shedding load with a transient busy error.
func (f *Fleet) enqueue(s *session, q queued) error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return fmt.Errorf("fleet: session %d already finalized", s.id)
	}
	select {
	case s.ch <- q:
		s.sendMu.Unlock()
	default:
		// Queue full: wait bounded, then shed load with a transient
		// busy error instead of growing memory.
		timer := time.NewTimer(f.opts.EnqueueTimeout)
		select {
		case s.ch <- q:
			timer.Stop()
			s.sendMu.Unlock()
		case <-timer.C:
			s.sendMu.Unlock()
			f.m.busy.Inc()
			return fmt.Errorf("%w: session %d queue full (%d pending)",
				rpc.ErrBusy, s.id, f.opts.QueueSize)
		}
	}
	f.m.recIn.Inc()
	f.m.bytesIn.Add(int64(len(q.raw)))
	return nil
}

// AppendBatchResponse reports how many leading records of a batch the
// server accepted. A partial count is success, not failure: the client
// resends only the unaccepted tail, so backpressure never duplicates
// records.
type AppendBatchResponse struct {
	Accepted int `json:"accepted"`
}

// handleAppendBatch body: u64le session id, then a trace framed stream
// ((uvarint length, record bytes)*). The whole batch is validated up
// front; acceptance is then per-record in order. A single record is a
// batch of one. Zero accepted on a non-empty batch maps to the transient
// busy error so retry layers back off.
func (f *Fleet) handleAppendBatch(body []byte) ([]byte, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("fleet: short append frame")
	}
	id := binary.LittleEndian.Uint64(body[:8])
	s, err := f.lookup(id)
	if err != nil {
		return nil, err
	}
	// One copy for the whole batch: the rpc layer reuses its read buffer
	// per connection, and the frame subslices below alias this copy as
	// they cross into the drain goroutine. The copy starts frameOverhead
	// bytes in, so the session log's frame header is written in front of
	// it and the accepted records are logged without a second copy.
	buf := make([]byte, frameOverhead+len(body)-8)
	framed := buf[frameOverhead:]
	copy(framed, body[8:])
	frames, err := trace.SplitFramed(framed)
	if err != nil {
		return nil, fmt.Errorf("fleet: reject batch: %w", err)
	}
	decoded := make([]*trace.ProfileRecord, len(frames))
	for i, fr := range frames {
		dec, err := trace.UnmarshalRecord(fr)
		if err != nil {
			return nil, fmt.Errorf("fleet: reject batch record %d: %w", i, err)
		}
		decoded[i] = dec
	}
	s.touch(f.opts.Now())

	accepted := 0
	var enqErr error
	for i, fr := range frames {
		if enqErr = f.enqueue(s, queued{raw: fr, rec: decoded[i]}); enqErr != nil {
			break
		}
		accepted++
	}
	if accepted == 0 && len(frames) > 0 {
		return nil, enqErr
	}
	// Durability point: the accepted prefix lands as one log frame
	// before the client learns its count. A partial count is still an
	// ack for those records.
	if accepted > 0 {
		prefix, err := acceptedPrefix(framed, accepted)
		if err != nil {
			return nil, err
		}
		if err := f.logAccepted(s, buf[:frameOverhead+len(prefix)]); err != nil {
			return nil, err
		}
	}
	return json.Marshal(AppendBatchResponse{Accepted: accepted})
}

// remove detaches a session from the table.
func (f *Fleet) remove(id uint64) (*session, error) {
	f.mu.Lock()
	s, ok := f.sessions[id]
	if ok {
		delete(f.sessions, id)
	}
	f.m.active.Set(int64(len(f.sessions)))
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown session %d", id)
	}
	return s, nil
}

func (f *Fleet) handleFinalize(body []byte) ([]byte, error) {
	var req sessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("fleet: bad finalize request: %w", err)
	}
	// Detach the session before sweeping: a finalize that arrives just
	// as the lease runs out must still win. Sweeping first would evict
	// the very session being finalized and drop its records.
	s, err := f.remove(req.SessionID)
	if err != nil {
		return nil, err
	}
	f.sweepExpired()
	s.closeQueue()
	<-s.done // drain finished: s.w and s.stream are ours now

	start := time.Now()
	sum := f.summarizeSession(s)
	f.m.summarizeUS.ObserveSince(start)
	blob := s.w.Finalize(sum)
	start = time.Now()
	var info RunInfo
	if f.opts.Ingest != nil {
		info, err = f.opts.Ingest.Save(blob)
	} else {
		info, err = f.repo.Save(blob)
	}
	f.m.saveUS.ObserveSince(start)
	if err != nil {
		return nil, err
	}
	// The run is indexed; the session's durable state has served its
	// purpose. A crash before retirement is reconciled by
	// RecoverSessions (run-in-manifest → retire).
	f.retireSession(s.token)
	f.m.saved.Inc()
	f.maybeCompact()
	f.opts.Obs.Emit("fleet", "run-saved",
		fmt.Sprintf("run %q: %d records, %d bytes", info.RunID, info.Records, info.Bytes))
	return json.Marshal(info)
}

// maybeCompact kicks a background compaction pass every CompactEvery-th
// saved run. Repo.Compact serializes passes internally (compactMu), so
// overlapping triggers queue rather than stampede.
func (f *Fleet) maybeCompact() {
	n := f.opts.CompactEvery
	if n <= 0 {
		return
	}
	if f.savedRuns.Add(1)%uint64(n) != 0 {
		return
	}
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		if _, err := f.repo.Compact(CompactOptions{}); err != nil {
			f.opts.Obs.Emit("fleet", "compact-error", err.Error())
		}
	}()
}

// WaitBackground blocks until every in-flight background compaction
// pass has finished. Call before tearing down the store under the
// fleet (tests, shutdown).
func (f *Fleet) WaitBackground() { f.bg.Wait() }

func (f *Fleet) handleAbort(body []byte) ([]byte, error) {
	var req sessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("fleet: bad abort request: %w", err)
	}
	s, err := f.remove(req.SessionID)
	if err != nil {
		return nil, err
	}
	s.closeQueue()
	<-s.done
	f.retireSession(s.token)
	return nil, nil
}

// ActiveSessions reports how many sessions are currently open.
func (f *Fleet) ActiveSessions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sessions)
}
