// Streaming phase analysis: the incremental counterpart of the batch
// analyzer. A StreamAnalyzer consumes ProfileRecords one at a time —
// from a live profiler session, a fleet session log, or archive.Iter —
// and maintains phase structure as the run unfolds:
//
//   - streaming step aggregation: per-window step fragments merge until
//     the records' watermark seals the step (steps straddle
//     profile-window boundaries, exactly the case trace.AggregateSteps
//     handles post hoc). Each record carries the profile service's
//     OpenStep — no later record holds a fragment of a step below it —
//     so a step seals once the highest OpenStep fed passes it, with
//     every fragment merged: the sealed series is AggregateSteps' series;
//   - the paper's online OLS linear scan promoted to first class:
//     sealed steps feed batch OLS's boundary chain (olsChain) and phase
//     boundaries emit PhaseOpen/PhaseClose events the moment they are
//     known, each close carrying the phase's aggregate (at full rate,
//     batch OLS's phase summarized; the collector archives these);
//   - a profile duty-cycle knob for `watch -duty` (the collector
//     analyzes every step): analyze only 1/N of the steps and still
//     report the whole run's phase structure (SeqPoint's
//     representative-sampling payoff — TestStreamDutyCycleSubsetOfFull
//     bounds the sampled report against the full stream).
//
// Memory contract: resident state is O(steps at or above the watermark +
// closed phases). The open steps are those a later record may still add
// to: about one training loop's worth on a live profile, one window's
// worth on a recording profiled after training, and — for records that
// carry no OpenStep — the whole run until Finish. No record and no
// per-step statistic is retained past its seal + similarity comparison;
// a closed phase keeps only its capped signature and its top-op table.
// See DESIGN.md ("Streaming analyzer contract") and StateBytes.
//
// Determinism contract: the final StreamReport is a pure function of
// the record sequence and StreamOptions. Feeding the same records in
// any chunking — one at a time, batches of 7, or the whole run — yields
// a bit-identical report (stream_diff_test.go enforces this, chunk
// sizes {1, 7, 1000} × duty cycles {1, 10}).
package analyzer

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Streaming analysis constants.
const (
	// DegradeFactor flags a sealed step whose span exceeds this multiple
	// of its phase's mean step span.
	DegradeFactor = 2.0
	// SignatureOps caps a closed phase's op-mix signature.
	SignatureOps = 12
	// degradeMinSteps is how many steps a phase needs before its mean
	// span is trusted for degradation detection.
	degradeMinSteps = 8
)

// StreamEventKind labels a streaming analysis event.
type StreamEventKind uint8

// The streaming event kinds.
const (
	// PhaseOpen fires when a boundary starts a new phase (including the
	// first step of the run).
	PhaseOpen StreamEventKind = iota
	// PhaseClose fires when a phase's last step is known — at the next
	// boundary, or at Finish for the final phase. The event carries the
	// completed phase summary.
	PhaseClose
	// StepDegraded fires when a sealed step's span exceeds
	// DegradeFactor × the phase's mean step span (at most once per
	// phase; the phase's Degraded count keeps the total).
	StepDegraded
)

func (k StreamEventKind) String() string {
	switch k {
	case PhaseOpen:
		return "phase-open"
	case PhaseClose:
		return "phase-close"
	case StepDegraded:
		return "step-degraded"
	default:
		return fmt.Sprintf("stream-event(%d)", uint8(k))
	}
}

// StreamEvent is one boundary or degradation notification. Phase points
// at the analyzer's live summary: PhaseClose events hand over the final,
// immutable summary; PhaseOpen and StepDegraded events hand the open
// phase, whose step/time fields are still growing.
type StreamEvent struct {
	Kind  StreamEventKind
	Phase *StreamPhase
	Step  int64 // step that triggered the event
}

// OpShare is one operator's share of a phase's total op time.
type OpShare struct {
	Key   trace.OpKey
	Share float64
}

// StreamPhase is a phase summary maintained incrementally — the
// streaming analogue of Phase, holding aggregates instead of member
// steps.
type StreamPhase struct {
	ID        int
	FirstStep int64
	LastStep  int64
	Steps     int64 // sampled steps folded in

	Start simclock.Time
	End   simclock.Time
	Total simclock.Duration // summed sampled-step spans

	IdleFrac float64 // span-weighted
	MXUUtil  float64 // span-weighted

	// Signature is the op-mix time-share signature (top SignatureOps
	// operators by share, descending), filled at close.
	Signature []OpShare
	// TopOps is the phase's top-op table (trace.TopOf per device, host
	// then TPU, 5 each: Table II's depth), filled at close.
	TopOps []trace.OpTotal

	// Degraded counts sealed steps that exceeded the degradation
	// factor against the phase mean.
	Degraded int64

	// ops aggregates op time while the phase is open (a sorted op list,
	// merged with each step's); compacted into Signature and TopOps and
	// released at close.
	ops []trace.OpTotal
}

// fold accumulates one step's span, extent and span-weighted metadata
// (not its operators: a run's totals are a phase without them).
func (p *StreamPhase) fold(st *trace.StepStat) {
	span := st.End.Sub(st.Start)
	if p.Steps == 0 {
		p.FirstStep, p.Start = st.Step, st.Start
	}
	p.Start = min(p.Start, st.Start)
	p.End = max(p.End, st.End)
	p.LastStep = st.Step
	p.Steps++
	p.Total += span
	p.IdleFrac += st.IdleFrac * float64(span)
	p.MXUUtil += st.MXUUtil * float64(span)
}

// close normalizes the span-weighted metadata and compacts the op
// aggregate into the signature and the top-op table, releasing it.
func (p *StreamPhase) close() {
	if p.Total > 0 {
		p.IdleFrac /= float64(p.Total)
		p.MXUUtil /= float64(p.Total)
	}
	p.Signature = compactSignature(p.ops)
	for _, dev := range []trace.Device{trace.Host, trace.TPU} {
		p.TopOps = append(p.TopOps, trace.TopOf(p.ops, dev, topOpsPerDevice)...)
	}
	p.ops = nil // released: the capped signature and table are all that survive
}

// TimeShare returns the phase's share of total across phases.
func (p *StreamPhase) TimeShare(total simclock.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(p.Total) / float64(total)
}

// StreamOptions tune a streaming analysis.
type StreamOptions struct {
	// Threshold is the OLS StepSimilarity threshold (default 0.70).
	Threshold float64
	// DutyCycle analyzes only steps whose number is ≡ 0 mod N (<= 1
	// analyzes every step). The report then estimates time shares from
	// the sampled steps alone.
	DutyCycle int
	// SealWindow is ignored: steps seal at the records' OpenStep. It
	// goes when its last setter does (ROADMAP item 2 (a)).
	SealWindow int
	// OnEvent, when set, receives PhaseOpen/PhaseClose/StepDegraded
	// synchronously from Feed/Finish.
	OnEvent func(StreamEvent)
	// Obs, when set, counts records/steps/phases/degradations.
	Obs *obs.Registry
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.DutyCycle <= 1 {
		o.DutyCycle = 1
	}
	return o
}

// StreamReport is the final output of a streaming analysis.
type StreamReport struct {
	Workload  string
	DutyCycle int

	Records   int64 // records fed
	Gaps      int64 // gap records skipped
	StepsSeen int64 // distinct steps observed before duty sampling
	Steps     int64 // sampled steps analyzed

	Phases []*StreamPhase

	TotalTime simclock.Duration // summed sampled-step spans
	IdleFrac  float64           // span-weighted over sampled steps
	MXUUtil   float64

	// Start and End are the sampled steps' wall extent: End.Sub(Start)
	// is the run's wall time, not TotalTime (a sum of spans).
	Start simclock.Time
	End   simclock.Time
}

// Coverage is the package's Coverage over the closed phases' totals.
func (r *StreamReport) Coverage(n int) float64 {
	phases := make([]*Phase, len(r.Phases))
	for i, p := range r.Phases {
		phases[i] = &Phase{ID: p.ID, Total: p.Total}
	}
	return Coverage(phases, n)
}

// Boundaries returns the first step of every phase after the first —
// the phase-boundary set compared against batch OLS.
func (r *StreamReport) Boundaries() []int64 {
	if len(r.Phases) <= 1 {
		return nil
	}
	out := make([]int64, 0, len(r.Phases)-1)
	for _, p := range r.Phases[1:] {
		out = append(out, p.FirstStep)
	}
	return out
}

// streamMetrics are the analyzer's obs instruments.
type streamMetrics struct {
	records  *obs.Counter
	steps    *obs.Counter
	phases   *obs.Counter
	degraded *obs.Counter
}

// StreamAnalyzer is the incremental analyzer. Not safe for concurrent
// use; callers feeding from multiple goroutines must serialize.
type StreamAnalyzer struct {
	workload string
	opts     StreamOptions
	m        streamMetrics

	// pending holds open steps awaiting cross-window fragments, in
	// ascending step order: trace.AddSteps merges each record in, and
	// the steps to seal are always a prefix.
	pending []*trace.StepStat
	// open is the highest positive OpenStep fed (MinInt64 before one):
	// every step below it is sealed, or never had a fragment.
	open int64

	// chain holds the last sampled sealed step as its comparison anchor:
	// exactly one full StepStat is retained past its seal.
	chain olsChain

	cur    *StreamPhase
	closed []*StreamPhase
	run    StreamPhase // every sampled step, folded without its operators

	rep      StreamReport
	finished bool
}

// NewStream builds a streaming analyzer for one run.
func NewStream(workload string, opts StreamOptions) *StreamAnalyzer {
	opts = opts.withDefaults()
	return &StreamAnalyzer{
		workload: workload,
		opts:     opts,
		open:     math.MinInt64,
		chain:    olsChain{threshold: opts.Threshold},
		m: streamMetrics{
			records:  opts.Obs.Counter("stream.records"),
			steps:    opts.Obs.Counter("stream.steps"),
			phases:   opts.Obs.Counter("stream.phases"),
			degraded: opts.Obs.Counter("stream.degraded"),
		},
	}
}

// Feed folds one record into the analysis and seals every step below
// the highest OpenStep fed. Gap records advance the record count only.
// A record holding a fragment of a step an earlier record's OpenStep
// sealed breaks the record contract: Feed returns an error naming the
// step and leaves the analysis as it was. Feeding after Finish is an
// error.
func (s *StreamAnalyzer) Feed(rec *trace.ProfileRecord) error {
	if s.finished {
		return fmt.Errorf("analyzer: stream already finished")
	}
	if rec == nil {
		return fmt.Errorf("analyzer: nil record")
	}
	for _, st := range rec.Steps {
		if st.Step < s.open {
			return fmt.Errorf("analyzer: record %d holds a fragment of step %d, which an earlier record's OpenStep %d sealed",
				rec.Seq, st.Step, s.open)
		}
	}
	s.rep.Records++
	s.m.records.Inc()
	if rec.Gap {
		s.rep.Gaps++
		return nil
	}
	s.pending = trace.AddSteps(s.pending, rec)
	// Only a positive OpenStep says anything (trace.ProfileRecord).
	if rec.OpenStep > 0 && rec.OpenStep > s.open {
		s.open = rec.OpenStep
	}
	// Seal smallest step number first, so OLS sees the step series in
	// order.
	n := 0
	for n < len(s.pending) && s.pending[n].Step < s.open {
		s.sealStep(s.pending[n])
		n++
	}
	s.pending = slices.Delete(s.pending, 0, n)
	return nil
}

// FeedBatch folds a batch of records in order. Equivalent to calling
// Feed on each — the determinism contract makes the chunking
// unobservable.
func (s *StreamAnalyzer) FeedBatch(recs []*trace.ProfileRecord) error {
	for _, r := range recs {
		if err := s.Feed(r); err != nil {
			return err
		}
	}
	return nil
}

// sealStep analyzes the lowest open step, which can no longer grow: it
// enters duty sampling, the OLS boundary chain and the open phase's
// aggregates. The caller removes it from pending.
func (s *StreamAnalyzer) sealStep(st *trace.StepStat) {
	step := st.Step
	s.rep.StepsSeen++

	if s.opts.DutyCycle > 1 && step%int64(s.opts.DutyCycle) != 0 {
		return // off-duty: the sampled report speaks for this step
	}
	s.rep.Steps++
	s.m.steps.Inc()

	if s.chain.opens(st) {
		s.closePhase(st.Step)
		s.openPhase(st)
	} else {
		s.extendPhase(st)
	}
}

// openPhase starts a new phase at st and emits PhaseOpen.
func (s *StreamAnalyzer) openPhase(st *trace.StepStat) {
	p := &StreamPhase{ID: len(s.closed)}
	s.cur = p
	s.foldStep(p, st)
	s.m.phases.Inc()
	s.emit(StreamEvent{Kind: PhaseOpen, Phase: p, Step: st.Step})
}

// extendPhase folds st into the open phase, checking degradation first
// (against the mean excluding st, so a slow step cannot hide in its own
// average).
func (s *StreamAnalyzer) extendPhase(st *trace.StepStat) {
	p := s.cur
	span := st.End.Sub(st.Start)
	if p.Steps >= degradeMinSteps {
		mean := float64(p.Total) / float64(p.Steps)
		if float64(span) > DegradeFactor*mean {
			p.Degraded++
			s.m.degraded.Inc()
			if p.Degraded == 1 {
				s.emit(StreamEvent{Kind: StepDegraded, Phase: p, Step: st.Step})
			}
		}
	}
	s.foldStep(p, st)
}

// foldStep accumulates one sampled step into a phase and the run.
func (s *StreamAnalyzer) foldStep(p *StreamPhase, st *trace.StepStat) {
	p.fold(st)
	p.ops = trace.MergeOps(p.ops, st.Ops)
	s.run.fold(st)
}

// closePhase finalizes the open phase (if any) and emits PhaseClose.
// boundaryStep is the first step of the successor (the boundary that
// closed it); the final Finish-time close passes the phase's own last
// step.
func (s *StreamAnalyzer) closePhase(boundaryStep int64) {
	p := s.cur
	s.cur = nil
	if p == nil {
		return
	}
	p.close()
	s.closed = append(s.closed, p)
	s.emit(StreamEvent{Kind: PhaseClose, Phase: p, Step: boundaryStep})
}

// Finish seals every open step, closes the final phase, and returns the
// report. The analyzer rejects further feeding afterwards.
func (s *StreamAnalyzer) Finish() *StreamReport {
	if s.finished {
		return &s.rep
	}
	for _, st := range s.pending {
		s.sealStep(st)
	}
	s.pending = nil
	if s.cur != nil {
		s.closePhase(s.cur.LastStep)
	}
	s.finished = true
	s.chain.prev = nil

	s.rep.Workload = s.workload
	s.rep.DutyCycle = s.opts.DutyCycle
	s.rep.Phases = s.closed
	s.run.close()
	s.rep.TotalTime, s.rep.IdleFrac, s.rep.MXUUtil = s.run.Total, s.run.IdleFrac, s.run.MXUUtil
	s.rep.Start, s.rep.End = s.run.Start, s.run.End
	return &s.rep
}

func (s *StreamAnalyzer) emit(ev StreamEvent) {
	if s.opts.OnEvent != nil {
		s.opts.OnEvent(ev)
	}
}

// StateBytes estimates the analyzer's resident memory: the open steps,
// the one retained comparison step, the open phase's op aggregate, and
// the closed phases' signatures and top-op tables. Given records that
// carry OpenStep, everything except the closed-phase list is bounded
// independent of run length, and a closed phase's is O(SignatureOps).
func (s *StreamAnalyzer) StateBytes() int64 {
	var b int64 = 256
	for _, st := range s.pending {
		b += stepStatBytes(st)
	}
	if s.chain.prev != nil {
		b += stepStatBytes(s.chain.prev)
	}
	if s.cur != nil {
		b += 160 + int64(cap(s.cur.ops))*opEntryBytes
	}
	for _, p := range s.closed {
		b += 160 + int64(len(p.Signature))*40 + int64(len(p.TopOps))*opEntryBytes
	}
	return b
}

// opEntryBytes is the size of one trace.OpTotal list element (a string
// header, the device byte padded to a word, two 8-byte statistics).
const opEntryBytes = 40

// stepStatBytes is what a retained step holds: the 64-byte struct and
// its op list as allocated.
func stepStatBytes(st *trace.StepStat) int64 {
	return 64 + int64(cap(st.Ops))*opEntryBytes
}

// compactSignature reduces a phase's op aggregate to its top
// SignatureOps operators by time share, descending (ties broken by
// device then name for determinism).
func compactSignature(ops []trace.OpTotal) []OpShare {
	if len(ops) == 0 {
		return nil
	}
	var total simclock.Duration
	for i := range ops {
		total += ops[i].Total
	}
	out := make([]OpShare, 0, len(ops))
	for i := range ops {
		share := 0.0
		if total > 0 {
			share = float64(ops[i].Total) / float64(total)
		}
		out = append(out, OpShare{Key: ops[i].Key(), Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		if out[i].Key.Device != out[j].Key.Device {
			return out[i].Key.Device < out[j].Key.Device
		}
		return out[i].Key.Name < out[j].Key.Name
	})
	if len(out) > SignatureOps {
		out = out[:SignatureOps]
	}
	return out
}
