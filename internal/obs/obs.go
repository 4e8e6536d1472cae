// Package obs is the toolchain's own observability layer: a
// dependency-free metrics and structured-event subsystem the profiler,
// RPC transport, optimizer, and analyzer all report into.
//
// TPUPoint's premise is visibility into a running training system, so its
// reproduction cannot itself be a black box. When the profiler degrades
// (lost windows, dropped records, memory-only recording), when the RPC
// layer redials or trips its breaker, or when the optimizer probes a
// parameter, the evidence lands here — as atomic counters, gauges,
// fixed-bucket microsecond histograms, and a bounded in-memory event
// ring — and is exported as one deterministic JSON snapshot.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments whose
// methods are no-ops, so instrumented code paths never branch on whether
// observability is enabled.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil counters are no-ops.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil counters).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depths, breaker state).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Nil gauges are no-ops.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil gauges).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// BucketBoundsUs are the fixed histogram bucket upper bounds, in
// microseconds. An observation lands in the first bucket whose bound it
// does not exceed; anything past the last bound lands in the overflow
// bucket. Fixed bounds keep snapshots mergeable across runs and hosts.
var BucketBoundsUs = [...]int64{
	10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
}

// Histogram accumulates microsecond durations into the fixed
// BucketBoundsUs buckets. All methods are lock-free and nil-safe.
type Histogram struct {
	counts [len(BucketBoundsUs) + 1]atomic.Int64 // +1 = overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// observe records one duration in microseconds. Negative observations
// clamp to zero.
func (h *Histogram) observe(us int64) {
	if h == nil {
		return
	}
	if us < 0 {
		us = 0
	}
	bounds := BucketBoundsUs[:]
	idx := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= us })
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// ObserveSince records the wall time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.observe(time.Since(start).Microseconds())
}

// Count returns the number of observations (0 for nil histograms).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the p-quantile (p in [0,1]) in microseconds from
// the bucket counts: the upper bound of the bucket containing the
// p-th ranked observation. Overflow-bucket hits report the observed
// max instead, so the estimate never exceeds reality's ceiling. Returns
// 0 for empty (or nil) histograms. The estimate is conservative — at
// most one bucket width above the true quantile — which is the right
// bias for latency gates.
func (h *Histogram) Quantile(p float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p*float64(total-1)) + 1
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(BucketBoundsUs) {
				return BucketBoundsUs[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// BucketCount is one non-empty histogram bucket in a snapshot. Le is the
// bucket's inclusive upper bound in µs; -1 marks the overflow bucket.
type BucketCount struct {
	Le    int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	SumUs   int64         `json:"sum_us"`
	MeanUs  float64       `json:"mean_us"`
	MaxUs   int64         `json:"max_us"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumUs: h.sum.Load(), MaxUs: h.max.Load()}
	if s.Count > 0 {
		s.MeanUs = float64(s.SumUs) / float64(s.Count)
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := int64(-1)
		if i < len(BucketBoundsUs) {
			le = BucketBoundsUs[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: le, Count: n})
	}
	return s
}

// Event is one structured entry in the bounded event ring: a state
// transition or degradation worth keeping (a lost window, a breaker trip,
// an optimizer move), not a log line.
type Event struct {
	Seq    int64     `json:"seq"`
	At     time.Time `json:"at"`
	Scope  string    `json:"scope"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
}

// DefaultEventCapacity bounds the event ring when NewRegistry is given no
// explicit capacity.
const DefaultEventCapacity = 256

// Registry is a namespace of instruments plus the event ring. Instruments
// are created on first use and live for the registry's lifetime; Snapshot
// exports everything as one deterministic structure.
type Registry struct {
	mu       sync.Mutex
	labels   map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	evMu   sync.Mutex
	events []Event // ring storage, evCap entries once full
	evCap  int
	evSeq  int64 // total events ever emitted
	now    func() time.Time
}

// NewRegistry builds a registry whose event ring keeps the last eventCap
// events (DefaultEventCapacity when <= 0).
func NewRegistry(eventCap int) *Registry {
	if eventCap <= 0 {
		eventCap = DefaultEventCapacity
	}
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		evCap:    eventCap,
		now:      time.Now,
	}
}

// SetLabel attaches an identity label to every snapshot this registry
// exports — which process, which collector replica, which role the
// numbers came from. Metric names stay identical across replicas; the
// labels are what tells an aggregator whose fleet.records.in it is
// reading. Nil-safe; an empty key is ignored.
func (r *Registry) SetLabel(key, value string) {
	if r == nil || key == "" {
		return
	}
	r.mu.Lock()
	if r.labels == nil {
		r.labels = make(map[string]string)
	}
	r.labels[key] = value
	r.mu.Unlock()
}

// Label reads an identity label ("" when absent). Nil-safe.
func (r *Registry) Label(key string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.labels[key]
}

// SetClock overrides the event timestamp source (deterministic tests).
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.evMu.Lock()
	r.now = now
	r.evMu.Unlock()
}

// Counter returns the named counter, creating it (at zero) on first use.
// A nil registry returns a nil, no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Emit appends a structured event to the ring, evicting the oldest entry
// once the ring is full.
func (r *Registry) Emit(scope, name, detail string) {
	if r == nil {
		return
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	ev := Event{Seq: r.evSeq, At: r.now(), Scope: scope, Name: name, Detail: detail}
	r.evSeq++
	if len(r.events) < r.evCap {
		r.events = append(r.events, ev)
		return
	}
	r.events[int(ev.Seq)%r.evCap] = ev
}

// Events returns the ring's contents ordered oldest-first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	out := make([]Event, 0, len(r.events))
	if len(r.events) < r.evCap {
		return append(out, r.events...)
	}
	head := int(r.evSeq) % r.evCap // oldest slot
	out = append(out, r.events[head:]...)
	out = append(out, r.events[:head]...)
	return out
}

// Snapshot is the exported state of a registry at one instant. Map keys
// serialize sorted (encoding/json), so identical state yields identical
// bytes — the property regression gates depend on.
type Snapshot struct {
	Labels        map[string]string            `json:"labels,omitempty"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	Events        []Event                      `json:"events"`
	EventsDropped int64                        `json:"events_dropped"`
}

// Snapshot captures every instrument and the event ring. A nil registry
// yields an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	if len(r.labels) > 0 {
		s.Labels = make(map[string]string, len(r.labels))
		for k, v := range r.labels {
			s.Labels[k] = v
		}
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	r.mu.Unlock()
	s.Events = r.Events()
	r.evMu.Lock()
	if dropped := r.evSeq - int64(len(r.events)); dropped > 0 {
		s.EventsDropped = dropped
	}
	r.evMu.Unlock()
	return s
}

// C returns a counter value from the snapshot (0 when absent).
func (s Snapshot) C(name string) int64 { return s.Counters[name] }

// WriteJSON writes the indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP serves the JSON snapshot, making a *Registry an http.Handler
// for live inspection of a running system.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := r.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// PublishExpvar exposes the registry under the given expvar name (visible
// at /debug/vars alongside the runtime's own metrics). Publishing the
// same name twice is a no-op rather than expvar's panic.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// summaryKeys drive SummaryLine: label, counter name. Only counters the
// run actually registered appear, so a profile-only run shows no
// optimizer noise and vice versa.
var summaryKeys = []struct{ label, key string }{
	{"windows", "profiler.windows.fetched"},
	{"gaps", "profiler.windows.lost"},
	{"drops", "profiler.records.dropped"},
	{"put_timeouts", "profiler.put.timeouts"},
	{"degraded", "profiler.degraded"},
	{"rpc_calls", "rpc.calls"},
	{"redials", "rpc.redials"},
	{"probes", "optimizer.probes.started"},
	{"accepted", "optimizer.probes.accepted"},
	{"rolled_back", "optimizer.probes.rolledback"},
}

// SummaryLine renders the operator-facing one-line digest of a snapshot:
// every well-known counter that exists in the snapshot, as label=value
// pairs. Returns "" when none are present.
func (s Snapshot) SummaryLine() string {
	var parts []string
	for _, k := range summaryKeys {
		if v, ok := s.Counters[k.key]; ok {
			parts = append(parts, fmt.Sprintf("%s=%d", k.label, v))
		}
	}
	return strings.Join(parts, " ")
}
