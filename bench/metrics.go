package main

// The benchmark's contract: its workloads and every metric it prints.
// BENCHMARK.json at the repository root is `-describe` output; the test
// fails when the two differ.

const (
	// runSeconds is how long one run measures.
	runSeconds = 20
	// clients is the number of closed-loop client goroutines (and
	// connections) the collect and query workloads drive. It is a
	// constant of the benchmark, never derived from the machine.
	clients = 2
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

var workloadDefs = []workloadDef{
	{"collect-stream", "2 agents stream long resnet sessions record by record: rpc framing, session queue, durable session log and stream analyzer dominate; the commit path does little"},
	{"collect-small", "2 agents run rounds of 2-record sessions and one compaction pass: open, finalize, group commit, journal, manifest CAS and packs dominate; the log and stream analyzer do little"},
	{"paper-pipeline", "one user's Figure 2 flow (simulate, profile, analyze with OLS/k-means/DBSCAN, render, archive, diff, tune): CPU-bound, no network or disk, so collector work must not move it"},
	{"query-readback", "2 readers list, get+decode, diff and watch-replay runs the write path stored (some packed): reads beside the collectors' writes, so a layout or codec change that slows reads shows"},
}

func bound(b float64) *float64 { return &b }

// End-to-end metrics are measured with tracing off and printed for every
// workload. "work" is training steps on collect-stream, collect-small
// and paper-pipeline, and mix operations on query-readback; "call" is
// the synchronous call the workload's user waits on (README.md). The
// three that read a clock have the widest bound the contract allows:
// the VMs this runs on change speed by a quarter for minutes at a time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"work_per_s", "1/s", "higher", bound(0.25)},
	{"call_p50_ms", "ms", "lower", bound(0.25)},
	{"cpu_us_per_work", "us", "lower", bound(0.25)},
	{"alloc_kb_per_work", "KB", "lower", bound(0.15)},
	{"stored_bytes_per_user_byte", "ratio", "lower", bound(0.02)},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// Per-layer metrics come from the traced run; the prefix is the module.
// Counts, bytes and busy times are per round. A workload that bypasses a
// layer prints 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		layer("estimator.train_ms_p50", "ms", "lower"),
		layer("estimator.sim_steps_per_s", "1/s", "higher"),

		layer("profiler.capture_ms_p50", "ms", "lower"),
		layer("profiler.records", "count", "higher"),
		layer("profiler.bytes", "bytes", "lower"),
		layer("profiler.records_dropped", "count", "lower"),

		layer("trace.marshal_ns_per_step", "ns", "lower"),
		layer("trace.unmarshal_ns_per_step", "ns", "lower"),
		layer("trace.allocs_per_record", "count", "lower"),

		layer("rpc.ping_rtt_us_p50", "us", "lower"),
		layer("rpc.bytes_out", "bytes", "lower"),
		layer("rpc.bytes_in", "bytes", "lower"),
		layer("rpc.frames", "count", "lower"),
		layer("rpc.calls", "count", "lower"),
		layer("rpc.call_retries", "count", "lower"),
		layer("rpc.call_busy", "count", "lower"),

		layer("fleet.open_us_p50", "us", "lower"),
		layer("fleet.put_us_p50", "us", "lower"),
		layer("fleet.put_p99_us", "us", "lower"),
		layer("fleet.finalize_us_p50", "us", "lower"),
		layer("fleet.finalize_p99_us", "us", "lower"),
		layer("fleet.records_in", "count", "higher"),
		layer("fleet.records_archived", "count", "higher"),
		layer("fleet.appends_busy", "count", "lower"),
		layer("fleet.server_self_us_per_put", "us", "lower"),

		layer("stream.feed_ns_per_step", "ns", "lower"),
		layer("stream.state_bytes", "bytes", "lower"),
		layer("stream.phases", "count", "higher"),
		layer("stream.finish_us", "us", "lower"),
		layer("stream.watch_steps_per_s", "1/s", "higher"),

		layer("analyzer.report_ols_ms_p50", "ms", "lower"),
		layer("analyzer.report_kmeans_ms_p50", "ms", "lower"),
		layer("analyzer.report_dbscan_ms_p50", "ms", "lower"),
		layer("analyzer.features_us", "us", "lower"),
		layer("analyzer.pca_us", "us", "lower"),
		layer("analyzer.kmeans_us", "us", "lower"),
		layer("analyzer.dbscan_us", "us", "lower"),
		layer("analyzer.ols_us", "us", "lower"),

		layer("archive.encode_ns_per_step", "ns", "lower"),
		layer("archive.decode_ns_per_step", "ns", "lower"),
		layer("archive.bytes_per_step", "bytes", "lower"),
		layer("archive.open_verify_us_p50", "us", "lower"),

		layer("repo.save_us_p50", "us", "lower"),
		layer("repo.list_us_p50", "us", "lower"),
		layer("repo.get_us_p50", "us", "lower"),
		layer("repo.compare_us_p50", "us", "lower"),
		layer("repo.watch_us_p50", "us", "lower"),
		layer("repo.cas_retries", "count", "lower"),
		layer("repo.ingest_batches", "count", "lower"),
		layer("repo.ingest_runs_per_batch", "ratio", "higher"),
		layer("repo.compact_packs", "count", "higher"),
		layer("repo.compact_bytes", "bytes", "higher"),
		layer("repo.fsck_us", "us", "lower"),
	}
	for _, class := range storeClasses {
		defs = append(defs,
			layer("storage."+class+".ops", "count", "lower"),
			layer("storage."+class+".bytes_written", "bytes", "lower"),
			layer("storage."+class+".bytes_read", "bytes", "lower"),
			layer("storage."+class+".busy_ms", "ms", "lower"))
	}
	return append(defs,
		layer("storage.append_us_p50", "us", "lower"),
		layer("storage.putif_us_p50", "us", "lower"),
		layer("storage.get_us_p50", "us", "lower"),
		layer("storage.bytes_written_per_user_byte", "ratio", "lower"),

		layer("optimizer.tune_ms_p50", "ms", "lower"),
		layer("optimizer.probes_started", "count", "lower"),
		layer("optimizer.measured_speedup_min", "ratio", "higher"),

		layer("viz.trace_ms_p50", "ms", "lower"),
		layer("viz.csv_ms_p50", "ms", "lower"),
		layer("viz.bytes_out", "bytes", "lower"),

		layer("process.peak_rss_mb", "MB", "lower"),
		layer("process.alloc_mb", "MB", "lower"),
		layer("process.gc_pause_ms", "ms", "lower"),
		layer("process.gomaxprocs", "count", "higher"),
		layer("process.scratch_ram", "count", "higher"),
		layer("tracing.overhead_share", "ratio", "lower"),
		layer("tracing.unattributed_share", "ratio", "lower"),
	)
}()

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func describe() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
