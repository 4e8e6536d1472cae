package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// session or query op share Op; Parent is the span that caused this one
// (0 = top level).
type span struct {
	Name       string
	ID, Parent int64
	Op         int64
	Tid        int
	Start, Dur time.Duration // Start is relative to the recorder epoch
}

// recorder collects latency samples (always) and spans (only when
// tracing) for one goroutine; it takes no locks. Recorders of one run
// share an epoch and are merged when the run ends.
type recorder struct {
	tid     int
	epoch   time.Time
	tracing bool
	samples map[string][]float64 // span name -> durations in µs
	spans   []span
	seq     int64
	// simSteps is how many training steps the estimator.train spans
	// simulated.
	simSteps float64
}

func newRecorder(tid int, epoch time.Time, tracing bool) *recorder {
	return &recorder{tid: tid, epoch: epoch, tracing: tracing, samples: map[string][]float64{}}
}

// open is a started span; close it with recorder.end.
type open struct {
	id    int64
	start time.Time
}

func (r *recorder) begin() open {
	r.seq++
	return open{id: int64(r.tid)<<40 | r.seq, start: time.Now()}
}

// end records the span as one sample of name and returns its duration.
func (r *recorder) end(o open, name string, parent, op int64) time.Duration {
	d := time.Since(o.start)
	r.samples[name] = append(r.samples[name], float64(d)/float64(time.Microsecond))
	if r.tracing {
		r.spans = append(r.spans, span{Name: name, ID: o.id, Parent: parent, Op: op,
			Tid: r.tid, Start: o.start.Sub(r.epoch), Dur: d})
	}
	return d
}

// merge folds other's samples and spans into r.
func (r *recorder) merge(other *recorder) {
	for name, s := range other.samples {
		r.samples[name] = append(r.samples[name], s...)
	}
	r.spans = append(r.spans, other.spans...)
	r.simSteps += other.simSteps
}

// sum is the total of a span name's samples, in µs.
func (r *recorder) sum(name string) float64 {
	var t float64
	for _, v := range r.samples[name] {
		t += v
	}
	return t
}

// failures are the correctness checks that fired, the first twenty of them.
type failures []string

func (f *failures) check(ok bool, format string, args ...any) {
	if !ok && len(*f) < 20 {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

// roundStat is what one measured round cost. Every round of a workload
// does the same work, so rounds differ only by what the machine did to
// them.
type roundStat struct {
	Wall    float64 `json:"wall_s"`   // clients started -> all work done and drained
	CPU     float64 `json:"cpu_s"`    // process user+sys CPU over the same interval
	AllocKB float64 `json:"alloc_kb"` // heap allocated over the same interval
	CallP50 float64 `json:"call_p50_us"`
}

// timer measures the timed part of one round.
type timer struct {
	start time.Time
	cpu   float64
	alloc uint64
}

func startTimer() timer {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return timer{cpu: cpuSeconds(), alloc: m.TotalAlloc, start: time.Now()}
}

func (t timer) stop() roundStat {
	wall := time.Since(t.start).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return roundStat{Wall: wall, CPU: cpuSeconds() - t.cpu, AllocKB: float64(m.TotalAlloc-t.alloc) / 1024}
}

// quartiles returns p25, p50 and p75 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// agreement run computes the same spread the driver does.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// quantile is the p-th quantile (p in [0,1]), interpolated between the
// order statistics around p*(n-1).
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ramBacked reports whether dir is on a tmpfs (run.sh mounts one over the
// scratch directory when it may).
func ramBacked(dir string) bool {
	const tmpfsMagic = 0x01021994
	var fs syscall.Statfs_t
	return syscall.Statfs(dir, &fs) == nil && fs.Type == tmpfsMagic
}

// dirBytes sums the sizes of the regular files under root — data files
// and the store's own bookkeeping alike.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// traceGroup is one workload's spans.
type traceGroup struct {
	name  string
	spans []span
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, one
// process per workload, one row per client goroutine.
func writeChromeTrace(w io.Writer, groups []traceGroup) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	var events []event
	for pid, g := range groups {
		for _, s := range g.spans {
			events = append(events, event{Name: s.Name, Cat: g.name, Ph: "X",
				Ts:  float64(s.Start) / float64(time.Microsecond),
				Dur: float64(s.Dur) / float64(time.Microsecond),
				Pid: pid + 1, Tid: s.Tid,
				Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op}})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
