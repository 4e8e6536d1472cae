// Fleet collection endpoint: the RPC service that lets N concurrent
// profiler sessions stream records into the repository. This is the
// ROADMAP's "many concurrent profiling sessions" north star — one
// collection server per fleet, each training VM's profiler streaming
// its records in, every finished session becoming an indexed archive.
//
// Resource discipline per session: a bounded record queue (an append
// that finds it full waits for the drain, so memory stays bounded and
// no batch is ever half taken), a lease that expires abandoned
// sessions, and obs counters for every admission decision. The
// zero-loss invariant the acceptance test checks: fleet.records.in ==
// fleet.records.archived once every session finalizes.
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
	DefaultMaxSessions = 32
	DefaultLease       = 30 * time.Second
)

// queueDepth bounds the records a session holds between its append
// handler and its drain, so a session's memory stays bounded; an append
// that finds the queue full waits for the drain. 128 lets a handler hand
// off a batch while the drain is still folding the records before it.
const queueDepth = 128

// FleetOptions tune the collection endpoint. Zero values take the
// defaults above.
type FleetOptions struct {
	// MaxSessions caps concurrently open sessions; Opens beyond it get
	// a busy error (rpc.ErrBusy → transient, clients back off).
	MaxSessions int
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

	ch   chan queued   // pending-record queue, queueDepth deep
	done chan struct{} // drain goroutine exit

	// mu orders the session. An append holds it from the index check
	// through the hand-off to the drain and the log append, and every
	// close (finalize, abort, lease expiry, poison, resume's eviction)
	// takes it, so the drain folds records in log order and none of
	// those interleaves with an append in flight. The drain never takes
	// mu, so an append waiting on a full queue always gets its turn.
	mu     sync.Mutex
	closed bool
	logged int64 // records in the durable log: the next new record's index

	lastActive atomic.Int64 // unix nanoseconds; the sweep reads it without mu
	archived   atomic.Int64 // records the drain has consumed
}

// newSession builds a session over meta and its durable token. Its
// drain is not started.
func (f *Fleet) newSession(token string, meta archive.Meta) *session {
	s := &session{
		token:  token,
		meta:   meta,
		w:      archive.NewWriter(meta),
		stream: f.newSessionStream(meta),
		ch:     make(chan queued, queueDepth),
		done:   make(chan struct{}),
	}
	s.touch(f.opts.Now())
	return s
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
		s.archived.Add(1)
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

func (s *session) touch(now time.Time) { s.lastActive.Store(now.UnixNano()) }

// close ends the session's appends, after any in flight, and waits for
// the drain: s.w and s.stream are the caller's once it returns. Safe to
// call more than once.
func (s *session) close() {
	s.mu.Lock()
	s.closeLocked()
	s.mu.Unlock()
	<-s.done
}

// closeLocked closes the queue exactly once; s.mu is held.
func (s *session) closeLocked() {
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
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
		if now.Sub(time.Unix(0, s.lastActive.Load())) > f.opts.Lease {
			delete(f.sessions, id)
			victims = append(victims, s)
		}
	}
	f.m.active.Set(int64(len(f.sessions)))
	f.mu.Unlock()
	for _, s := range victims {
		s.close()
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
	if err := checkRunID(req.RunID); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
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
	s := f.newSession(f.tokenFor(meta.RunID, meta.CreatedSeq), meta)
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

// handleAppendBatch body: u64le session id, u64le session index of the
// batch's first record, then a trace framed stream ((uvarint length,
// record bytes)*). A single record is a batch of one. The whole batch is
// validated up front and answered whole: records below the session's
// durable count were logged by an earlier send whose answer was lost, so
// they are skipped, and the rest are handed to the drain and logged
// under the session lock, in one order. An index past the durable count
// would leave a gap and is refused.
func (f *Fleet) handleAppendBatch(body []byte) ([]byte, error) {
	if len(body) < 16 {
		return nil, fmt.Errorf("fleet: short append frame")
	}
	id := binary.LittleEndian.Uint64(body[:8])
	first := binary.LittleEndian.Uint64(body[8:16])
	s, err := f.lookup(id)
	if err != nil {
		return nil, err
	}
	// One copy for the whole batch: the rpc layer reuses its read buffer
	// per connection, and the frame subslices below alias this copy as
	// they cross into the drain goroutine. The copy starts frameOverhead
	// bytes in, so the session log's frame header is written in front of
	// the first new record and the new records are logged without a
	// second copy.
	buf := make([]byte, frameOverhead+len(body)-16)
	framed := buf[frameOverhead:]
	copy(framed, body[16:])
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

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("fleet: unknown session %d: closed", s.id)
	}
	if first > uint64(s.logged) {
		return nil, fmt.Errorf("fleet: session %d append at record %d, past its %d durable records",
			s.id, first, s.logged)
	}
	skip := int(uint64(s.logged) - first)
	if skip >= len(frames) {
		return nil, nil
	}
	rest, err := trace.SkipFrames(framed, skip)
	if err != nil {
		return nil, err
	}
	// Hand off first, then log: the drain folds while the log append
	// runs. A full queue makes the hand-off wait for the drain.
	for i := skip; i < len(frames); i++ {
		s.ch <- queued{raw: frames[i], rec: decoded[i]}
		f.m.recIn.Inc()
		f.m.bytesIn.Add(int64(len(frames[i])))
	}
	// Durability point: the new records land as one log frame, its
	// header over the skipped records' bytes, before the client's ack.
	start := len(framed) - len(rest)
	if err := f.logAccepted(s, buf[start:]); err != nil {
		return nil, err
	}
	s.logged += int64(len(frames) - skip)
	return nil, nil
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
	s.close() // drain finished: s.w and s.stream are ours now

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
	s.close()
	f.retireSession(s.token)
	return nil, nil
}

// ActiveSessions reports how many sessions are currently open.
func (f *Fleet) ActiveSessions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sessions)
}
