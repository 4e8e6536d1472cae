// Command bench is the repository's end-to-end, per-layer benchmark: four
// named workloads over the collector/repository stack and the paper's
// Profiler -> Analyzer -> Optimizer flow. See README.md.
//
//	go run ./bench -seed 1                       every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1              every workload, per-layer metrics
//	go run ./bench -workload collect-small ...   one workload
//	go run ./bench -agree 5                      two sets of 5 runs, compared against the bounds
//
// BENCHMARK.json's command is run.sh, which builds this program and runs
// it with its scratch directory in RAM.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// scratchRoot is relative: the benchmark writes only inside its checkout.
const scratchRoot = ".bench_build/tmp"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing summarises one span name's samples, in µs.
type timing struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

// report is one workload's run.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Timings   map[string]timing      `json:"timings_us"`
	Setups    []float64              `json:"setup_samples_s,omitempty"`
	// WorkPerRound is what every round did; Rounds is what each measured
	// one cost, so any other summary than the printed one can be taken.
	WorkPerRound float64     `json:"work_per_round"`
	Rounds       []roundStat `json:"rounds"`
	spans        []span
}

// runConfig is everything that selects a run.
type runConfig struct {
	scratch   string // holds every directory the run creates; it removes its own
	seed      uint64
	seconds   float64
	traced    bool
	sz        sizes
	wrapStore func(sutStore) sutStore
}

// section is one set-up and the rounds run after it.
type section struct {
	setups []float64
	rounds []roundStat // the measured rounds; the warm-up round is not among them
	all    int         // rounds run, warm-up included
	// work, user and stored are one round's; every round's are the same.
	work, user, stored float64
	wallAll            float64 // summed over all rounds
	attributed         float64 // µs of client time the spans and counters explain
	attempted          int
	failures
	rec        *recorder
	layer      map[string]float64
	scratchRAM bool // the scratch directory is a tmpfs
}

// rate is the section's work per second: a round's work over a quiet
// round's wall time.
func (s *section) rate() float64 {
	return s.work / s.quiet(func(r roundStat) float64 { return r.Wall })
}

// quiet is what one of the rounds' costs reads in the section's quiet
// rounds: the lowest decile over the measured rounds. Every round does
// the same work and the machine only ever adds to its cost, in bursts and
// in spells that last from seconds to minutes, so the low end is what the
// work itself costs; the median follows the machine (README.md, "Rounds").
func (s *section) quiet(f func(roundStat) float64) float64 {
	return quantile(s.column(f), 0.10)
}

// column is one of the costs of every measured round.
func (s *section) column(f func(roundStat) float64) []float64 {
	col := make([]float64, len(s.rounds))
	for i, r := range s.rounds {
		col[i] = f(r)
	}
	return col
}

func (s *section) allocKB() float64 {
	return median(s.column(func(r roundStat) float64 { return r.AllocKB }))
}

// setUp sets w up minSetups times or more, each in a fresh directory, and
// returns every wall time and the last one's environment and state. The
// caller closes the state and removes e.dir.
func setUp(w workload, cfg runConfig, traced bool, minSetups int) (e *env, st state, took []float64, err error) {
	for total := 0.0; ; {
		dir, err := scratchDir(cfg.scratch)
		if err != nil {
			return nil, nil, nil, err
		}
		e = &env{seed: cfg.seed, sz: cfg.sz, dir: dir, traced: traced,
			rec: newRecorder(0, time.Now(), traced), wrapStore: cfg.wrapStore}
		if traced {
			e.reg, e.store, e.wire = newRegistry(), newStoreCounts(), &connCounts{}
		}
		t := time.Now()
		st, err = w.setup(e)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.def.Name, err)
		}
		took = append(took, time.Since(t).Seconds())
		total += took[len(took)-1]
		if len(took) >= minSetups &&
			(minSetups == 1 || len(took) >= cfg.sz.MaxSetups || total >= cfg.sz.SetupBudgetSec) {
			return e, st, took, nil
		}
		st.close()
		os.RemoveAll(dir)
	}
}

// runSection sets w up and then runs rounds for the given time: one to
// warm up, which is checked but not measured, and at least one more.
func runSection(w workload, cfg runConfig, traced bool, seconds float64, minSetups int) (*section, error) {
	e, st, setups, err := setUp(w, cfg, traced, minSetups)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	defer st.close()
	if traced {
		e.store.reset() // the rounds' traffic only
	}
	sec := &section{setups: setups, rec: e.rec, scratchRAM: ramBacked(e.dir)}

	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		rec := newRecorder(0, e.rec.epoch, traced)
		out, err := w.round(e, st, rec, n)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.def.Name, n, err)
		}
		out.stat.CallP50 = median(rec.samples[w.call])
		e.rec.merge(rec)
		if n == 0 {
			sec.work, sec.user, sec.stored = out.work, out.user, out.stored
			start = time.Now()
		} else {
			sec.rounds = append(sec.rounds, out.stat)
			sec.check(out.work == sec.work && out.user == sec.user,
				"round %d did %v work on %v bytes, the first %v on %v", n, out.work, out.user, sec.work, sec.user)
		}
		sec.all++
		sec.wallAll += out.stat.Wall
		sec.attempted += out.attempted
		for _, f := range out.failures {
			sec.check(false, "round %d: %s", n, f)
		}
	}
	if traced {
		if sec.layer, err = w.layers(e, st, sec); err != nil {
			return nil, fmt.Errorf("%s: %w", w.def.Name, err)
		}
	}
	return sec, nil
}

// run measures one workload: end-to-end metrics with tracing off, or —
// traced — an untraced half followed by a traced half, whose throughput
// ratio is the tracing overhead.
func run(w workload, cfg runConfig) (*report, error) {
	rep := &report{Workload: w.def.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Metrics: map[string]metricValue{}, Timings: map[string]timing{}}
	var sec *section
	var values map[string]float64
	defs := endToEnd
	if !cfg.traced {
		var err error
		if sec, err = runSection(w, cfg, false, cfg.seconds, cfg.sz.MinSetups); err != nil {
			return nil, err
		}
		rep.Setups = sec.setups
		values = map[string]float64{
			"setup_s":                    median(sec.setups),
			"work_per_s":                 sec.rate(),
			"call_p50_ms":                sec.quiet(func(r roundStat) float64 { return r.CallP50 }) / 1000,
			"cpu_us_per_work":            sec.quiet(func(r roundStat) float64 { return r.CPU }) * 1e6 / sec.work,
			"alloc_kb_per_work":          sec.allocKB() / sec.work,
			"stored_bytes_per_user_byte": sec.stored / sec.user,
		}
	} else {
		base, err := runSection(w, cfg, false, cfg.seconds/2, 1)
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if sec, err = runSection(w, cfg, true, cfg.seconds/2, 1); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		sec.failures = append(sec.failures, base.failures...)
		sec.attempted += base.attempted
		values = layerValues(w, sec)
		values["process.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / float64(sec.all)
		values["tracing.overhead_share"] = base.rate()/sec.rate() - 1
		defs = perLayer
	}
	for _, def := range defs {
		rep.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
	}
	rep.Attempted, rep.Failures, rep.Failed = sec.attempted, sec.failures, min(len(sec.failures), sec.attempted)
	rep.Correct = rep.Failed == 0 && sec.work > 0
	for name, s := range sec.rec.samples {
		q1, q2, q3 := quartiles(s)
		rep.Timings[name] = timing{len(s), q1, q2, q3}
	}
	rep.spans = sec.rec.spans
	rep.WorkPerRound, rep.Rounds = sec.work, sec.rounds
	return rep, nil
}

// layerValues derives the per-layer metrics of a traced section from its
// spans, on top of what the workload counted itself (sec.layer). Counts
// are per round.
func layerValues(w workload, sec *section) map[string]float64 {
	v, rec := sec.layer, sec.rec
	p50 := func(span string) float64 { return median(rec.samples[span]) }
	for metric, span := range map[string]string{
		"rpc.ping_rtt_us_p50":   "rpc.ping",
		"fleet.open_us_p50":     "fleet.open",
		"fleet.put_us_p50":      "fleet.put",
		"fleet.finalize_us_p50": "fleet.finalize",
		"repo.save_us_p50":      "repo.save",
		"repo.list_us_p50":      "repo.list",
		"repo.get_us_p50":       "repo.get",
		"repo.compare_us_p50":   "repo.compare",
		"repo.watch_us_p50":     "query.watch",
		"repo.fsck_us":          "repo.fsck",
	} {
		v[metric] = p50(span)
	}
	for metric, span := range map[string]string{
		"estimator.train_ms_p50":        "estimator.train",
		"profiler.capture_ms_p50":       "profiler.capture",
		"analyzer.report_ols_ms_p50":    "analyzer.report.ols",
		"analyzer.report_kmeans_ms_p50": "analyzer.report.kmeans",
		"analyzer.report_dbscan_ms_p50": "analyzer.report.dbscan",
		"optimizer.tune_ms_p50":         "optimizer.tune",
		"viz.trace_ms_p50":              "viz.trace",
		"viz.csv_ms_p50":                "viz.csv",
	} {
		v[metric] = p50(span) / 1000
	}
	v["fleet.put_p99_us"] = quantile(rec.samples["fleet.put"], 0.99)
	v["fleet.finalize_p99_us"] = quantile(rec.samples["fleet.finalize"], 0.99)
	if t := rec.sum("estimator.train"); t > 0 {
		v["estimator.sim_steps_per_s"] = rec.simSteps / (t / 1e6)
	}
	v["process.peak_rss_mb"] = peakRSSMB()
	v["process.alloc_mb"] = sec.allocKB() / 1024
	v["process.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if sec.scratchRAM {
		v["process.scratch_ram"] = 1
	}
	v["tracing.unattributed_share"] = 1 - sec.attributed/(sec.wallAll*1e6*float64(w.clients))
	return v
}

// print writes the report for people, then the one-line JSON result the
// driver reads.
func (r *report) print() {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Printf("  %-36s %16.4f %s\n", def.Name, r.Metrics[def.Name].Value, def.Unit)
	}
	if len(r.Setups) > 0 {
		q1, _, q3 := quartiles(r.Setups)
		fmt.Printf("  set-ups: n=%d p25=%.4fs p75=%.4fs\n", len(r.Setups), q1, q3)
	}
	names := make([]string, 0, len(r.Timings))
	for name := range r.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.Timings[name]
		fmt.Printf("  span %-24s n=%-7d p25=%-12.1f p50=%-12.1f p75=%-12.1f us\n", name, t.N, t.P25, t.P50, t.P75)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	fmt.Printf("%s\n", line)
}

// facts are what a reader needs to compare two reports.
func facts(cfg runConfig) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"seed": cfg.seed, "run_seconds": cfg.seconds, "clients": clients,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "sizes": cfg.sz,
		"scratch_ram": os.MkdirAll(cfg.scratch, 0o755) == nil && ramBacked(cfg.scratch),
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured section")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace JSON to this file")
		jsonOut  = flag.String("json", "", "write the full report (metrics, sample counts, quartiles, machine facts) to this file")
		agreeK   = flag.Int("agree", 0, "run two sets of K runs per workload and compare their medians against the bounds")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *traceOut, *jsonOut, *agreeK, *desc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, traced bool, traceOut, jsonOut string, agreeK int, desc bool) error {
	if desc {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(describe())
	}
	var selected []workload
	for _, w := range workloads() {
		if name == "" || name == w.def.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if agreeK > 0 {
		return agree(selected, agreeK, seconds)
	}

	cfg := runConfig{scratch: scratchRoot, seed: seed, seconds: seconds, traced: traced, sz: fullSizes}
	var reports []*report
	var incorrect []string
	for _, w := range selected {
		rep, err := run(w, cfg)
		if err != nil {
			return err
		}
		rep.print()
		reports = append(reports, rep)
		if !rep.Correct {
			incorrect = append(incorrect, rep.Workload)
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, map[string]any{"facts": facts(cfg), "reports": reports}); err != nil {
			return err
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		groups := make([]traceGroup, len(reports))
		for i, rep := range reports {
			groups[i] = traceGroup{rep.Workload, rep.spans}
		}
		if err := writeChromeTrace(f, groups); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(incorrect) > 0 {
		return fmt.Errorf("correctness checks failed on %v", incorrect)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
