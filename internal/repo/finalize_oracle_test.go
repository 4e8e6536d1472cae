package repo_test

// The collector used to build a run's summary from the archive writer's
// bytes at finalize: decode every record back, aggregate the steps in a
// map keyed by step number, run OLS, summarize. It now summarizes the
// phases the session's streaming analyzer closed as the records arrived.
// The old path is kept here, written the way it was, as the oracle:
// whatever a session held — full-size windows, a collector restart
// half-way, gaps, nothing but gaps, a fragment far behind the newest
// step, windows profiled live while training runs — the archive the
// collector stores must be the oracle's, byte for byte. (An external
// test package, so it can reach the simulator, which imports this one.)

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	tpupoint "repro"
	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

// aggregateByMap is trace.AggregateSteps as it was before StepSeries.
func aggregateByMap(records []*trace.ProfileRecord) []*trace.StepStat {
	byStep := make(map[int64]*trace.StepStat)
	for _, r := range records {
		for _, s := range r.Steps {
			if cur, ok := byStep[s.Step]; ok {
				cur.Merge(s)
			} else {
				byStep[s.Step] = s.Clone()
			}
		}
	}
	out := make([]*trace.StepStat, 0, len(byStep))
	for _, s := range byStep {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// oracleArchive is the parent's finalize over the wire records a session
// was sent: archive them, decode them back, aggregate, analyze, summarize.
func oracleArchive(t *testing.T, meta archive.Meta, wire [][]byte) []byte {
	t.Helper()
	w := archive.NewWriter(meta)
	var recs []*trace.ProfileRecord
	for _, b := range wire {
		rec, err := w.AddRaw(b)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	var sum *archive.Summary
	if steps := aggregateByMap(recs); len(steps) > 0 {
		rep, err := analyzer.AnalyzeSteps(meta.Workload, steps, analyzer.OLSAlgo, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum = archive.SummarizeReport(rep)
	}
	return w.Finalize(sum)
}

// resnet simulates resnet-imagenet and drains its profile in full-size
// windows, as bench/ does.
func resnet(tb testing.TB, steps int) []*trace.ProfileRecord {
	tb.Helper()
	s, err := tpupoint.NewSession("resnet-imagenet", tpupoint.Options{Steps: steps, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Train(); err != nil {
		tb.Fatal(err)
	}
	p, err := s.StartProfiler(true)
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := p.Stop()
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// collectorOver starts a collector over store, as a process start would.
func collectorOver(tb testing.TB, store repo.Store, reg *obs.Registry) rpc.Caller {
	tb.Helper()
	r, _, err := repo.Open(store)
	if err != nil {
		tb.Fatal(err)
	}
	srv := rpc.NewServer()
	repo.NewFleet(r, repo.FleetOptions{Obs: reg}).Register(srv)
	tb.Cleanup(srv.Close)
	return rpc.Pipe(srv)
}

// swapCaller is an agent's transport across a collector restart.
type swapCaller struct{ rpc.Caller }

func TestFinalizeMatchesDecodeAggregateOracle(t *testing.T) {
	full := resnet(t, 1000)
	if n := len(trace.AggregateSteps(full)); n < 1000 {
		t.Fatalf("recording holds %d steps, want at least 1000", n)
	}
	gap := func(seq int64, at simclock.Time) *trace.ProfileRecord {
		return &trace.ProfileRecord{Seq: seq, Gap: true, WindowStart: at, WindowEnd: at.Add(1000)}
	}
	var gapped []*trace.ProfileRecord
	for i, r := range full[:len(full)/3] {
		if i%3 == 1 {
			gapped = append(gapped, gap(r.Seq, r.WindowStart))
		}
		gapped = append(gapped, r)
	}
	gapped = append(gapped, gap(int64(len(full)), full[len(full)/3].WindowStart))

	// 300 one-step windows in order, then a fragment of step 99 when the
	// newest step is 299 — and one for a step never seen, further back.
	var late []*trace.ProfileRecord
	event := func(name string, dev trace.Device, step int64, at simclock.Time) trace.Event {
		return trace.Event{Name: name, Device: dev, Start: at, Dur: 700, Step: step}
	}
	for i := int64(0); i < 300; i++ {
		at := simclock.Time(1000 * (i + 10))
		name := "fusion"
		if i >= 150 {
			name = "CrossReplicaSum" // a second phase
		}
		late = append(late, trace.Reduce(i, at, []trace.Event{
			event("InfeedDequeue", trace.Host, i, at), event(name, trace.TPU, i, at.Add(100))}, 0.1+float64(i%7)/100, 0.5))
	}
	at := simclock.Time(1000 * 310)
	late = append(late,
		trace.Reduce(300, at, []trace.Event{event("OutfeedDequeue", trace.Host, 99, at), event("fusion", trace.TPU, 99, at.Add(50))}, 0.9, 0.05),
		trace.Reduce(301, at.Add(1000), []trace.Event{event("Straggler", trace.Host, -5, simclock.Time(500))}, 0.3, 0.3))

	for _, c := range []struct {
		name        string
		workload    string
		recs        []*trace.ProfileRecord
		restartAt   int // records sent before the collector restarts; 0 = never
		wantSummary bool
	}{
		{"full-size windows", "resnet-imagenet", full, 0, true},
		{"resumed by token half-way", "resnet-imagenet", full, len(full) / 2, true},
		{"gap records", "resnet-imagenet", gapped, 0, true},
		{"gaps only", "resnet-imagenet", []*trace.ProfileRecord{gap(0, 1000), gap(1, 3000)}, 0, false},
		{"fragment 200 steps late", "synthetic", late, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := storage.NewService()
			bucket, err := svc.CreateBucket("finalize-oracle")
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry(0)
			agent := &swapCaller{collectorOver(t, bucket, reg)}
			cl, err := repo.OpenResilient(agent, repo.OpenRequest{RunID: "run", Workload: c.workload, Label: c.name})
			if err != nil {
				t.Fatal(err)
			}
			var wire [][]byte
			for i, r := range c.recs {
				if c.restartAt > 0 && i == c.restartAt {
					agent.Close()
					agent.Caller = collectorOver(t, bucket, reg)
				}
				if err := cl.Append(r); err != nil {
					t.Fatal(err)
				}
				wire = append(wire, trace.MarshalRecord(r))
			}
			info, err := cl.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if want := min(c.restartAt, 1); cl.Resumes() != want {
				t.Fatalf("client resumed %d times, want %d", cl.Resumes(), want)
			}
			obj, err := bucket.Get(info.Object)
			if err != nil {
				t.Fatal(err)
			}
			ar, err := archive.Open(obj.Data)
			if err != nil {
				t.Fatal(err)
			}
			if got := ar.Summary() != nil; got != c.wantSummary {
				t.Fatalf("archive has a summary: %v, want %v", got, c.wantSummary)
			}
			if !bytes.Equal(obj.Data, oracleArchive(t, ar.Meta(), wire)) {
				t.Fatal("the collector's archive differs from decode -> aggregate by map -> analyze -> summarize over the same records")
			}

			// A run with no summary says so, and why; one with, does not.
			unsummarized := 0
			for _, ev := range reg.Events() {
				if ev.Scope == "fleet" && ev.Name == "run-unsummarized" {
					unsummarized++
					t.Logf("event: %s", ev.Detail)
				}
			}
			want := 0
			if !c.wantSummary {
				want = 1
			}
			if n := reg.Counter("fleet.runs.unsummarized").Value(); unsummarized != want || n != int64(want) {
				t.Fatalf("%d run-unsummarized events, counter %d, want %d of each", unsummarized, n, want)
			}
			for _, h := range []string{"fleet.finalize.summarize_us", "fleet.finalize.save_us"} {
				if n := reg.Histogram(h).Count(); n != 1 {
					t.Fatalf("%s holds %d observations after one finalize", h, n)
				}
			}
		})
	}
}

// storedArchive opens the archive a finalize reported.
func storedArchive(t *testing.T, bucket repo.Store, info repo.RunInfo) ([]byte, *archive.Archive) {
	t.Helper()
	obj, err := bucket.Get(info.Object)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := archive.Open(obj.Data)
	if err != nil {
		t.Fatal(err)
	}
	return obj.Data, ar
}

// TestFinalizeSummaryOfLiveProfiledSessions: a session profiled while
// training runs ships records whose OpenStep seals steps mid-run, so the
// collector's stream closes phases long before finalize. Its archive
// must still be the oracle's over the records it was sent, byte for
// byte, on each Table I workload and both generations.
func TestFinalizeSummaryOfLiveProfiledSessions(t *testing.T) {
	for _, workload := range []string{"dcgan-mnist", "bert-mrpc", "resnet-imagenet"} {
		for _, v := range []tpupoint.Version{tpupoint.V2, tpupoint.V3} {
			t.Run(fmt.Sprintf("%s-%s", workload, v), func(t *testing.T) {
				svc := storage.NewService()
				bucket, err := svc.CreateBucket("live")
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry(0)
				cl, err := repo.OpenResilient(collectorOver(t, bucket, reg), repo.OpenRequest{RunID: "run", Workload: workload})
				if err != nil {
					t.Fatal(err)
				}
				s, err := tpupoint.NewSession(workload, tpupoint.Options{Version: v, Steps: 1000, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				p, err := s.StartProfilerTo(cl)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Train(); err != nil {
					t.Fatal(err)
				}
				recs, err := p.Stop()
				if err != nil {
					t.Fatal(err)
				}
				var wire [][]byte
				sealing := false
				for _, r := range recs {
					wire = append(wire, trace.MarshalRecord(r))
					sealing = sealing || r.OpenStep > 0
				}
				if !sealing {
					t.Fatal("no record carries an OpenStep: nothing seals before finalize")
				}
				// Once the drain has fed every record, the stream has sealed
				// steps below the highest OpenStep: analysis happened mid-run.
				for archived := reg.Counter("fleet.records.archived"); archived.Value() < int64(len(recs)); {
					time.Sleep(100 * time.Microsecond)
				}
				sealed := reg.Counter("stream.steps").Value()
				if sealed == 0 {
					t.Fatal("the stream sealed no step before finalize")
				}
				info, err := cl.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				blob, ar := storedArchive(t, bucket, info)
				if ar.Summary() == nil {
					t.Fatal("archive has no summary")
				}
				t.Logf("%d records, %d of %d steps sealed before finalize, %d phases",
					len(recs), sealed, ar.Summary().Steps, len(ar.Summary().Phases))
				if !bytes.Equal(blob, oracleArchive(t, ar.Meta(), wire)) {
					t.Fatal("the collector's archive differs from decode -> aggregate by map -> analyze -> summarize over the same records")
				}
			})
		}
	}
}

// TestFinalizeRefusedRecordLeavesRunUnsummarized: a record holding a
// fragment of a step an earlier record's OpenStep sealed breaks the
// record contract, and the stream refuses it. Its phases then no longer
// cover every archived record, so the run is archived whole and without
// a summary, with one run-unsummarized event naming the step.
func TestFinalizeRefusedRecordLeavesRunUnsummarized(t *testing.T) {
	window := func(seq int64, first, last, open int64) *trace.ProfileRecord {
		var events []trace.Event
		for step := first; step <= last; step++ {
			at := simclock.Time(1000 * (step + 1))
			events = append(events, trace.Event{Name: "fusion", Device: trace.TPU, Start: at, Dur: 700, Step: step})
		}
		rec := trace.Reduce(seq, events[0].Start, events, 0.1, 0.5)
		rec.OpenStep = open
		return rec
	}
	recs := []*trace.ProfileRecord{
		window(0, 0, 4, 5),
		window(1, 2, 2, 5), // step 2 was sealed by the first record's OpenStep
		window(2, 5, 9, 10),
	}
	svc := storage.NewService()
	bucket, err := svc.CreateBucket("refused")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(0)
	cl, err := repo.OpenResilient(collectorOver(t, bucket, reg), repo.OpenRequest{RunID: "run", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, ar := storedArchive(t, bucket, info)
	if info.Records != int64(len(recs)) || ar.RecordCount() != int64(len(recs)) {
		t.Fatalf("archived %d records (index says %d), want all %d", ar.RecordCount(), info.Records, len(recs))
	}
	if ar.Summary() != nil {
		t.Fatal("a run with a refused record was summarized")
	}
	var details []string
	for _, ev := range reg.Events() {
		if ev.Scope == "fleet" && ev.Name == "run-unsummarized" {
			details = append(details, ev.Detail)
		}
	}
	if n := reg.Counter("fleet.runs.unsummarized").Value(); n != 1 || len(details) != 1 {
		t.Fatalf("counter %d, %d run-unsummarized events, want 1 of each", n, len(details))
	}
	if !strings.Contains(details[0], "step 2,") {
		t.Fatalf("run-unsummarized detail %q does not name step 2", details[0])
	}
}

// BenchmarkFleetFinalize is one 1000-step resnet session through open,
// append and finalize over a bucket. The whole trip is ns/op; the custom
// metrics are the finalize call alone — taken once the drain has
// archived every record, so none of its work is counted — per distinct
// step of the session.
func BenchmarkFleetFinalize(b *testing.B) {
	recs := resnet(b, 1000)
	steps := float64(len(trace.AggregateSteps(recs)))
	var spent time.Duration
	var allocated, mallocs uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := storage.NewService()
		bucket, err := svc.CreateBucket("finalize-bench")
		if err != nil {
			b.Fatal(err)
		}
		reg := obs.NewRegistry(0)
		cl, err := repo.OpenResilient(collectorOver(b, bucket, reg), repo.OpenRequest{RunID: fmt.Sprint("run-", i), Workload: "resnet-imagenet"})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		for archived := reg.Counter("fleet.records.archived"); archived.Value() < int64(len(recs)); {
			time.Sleep(100 * time.Microsecond)
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := cl.Finalize(); err != nil {
			b.Fatal(err)
		}
		spent += time.Since(start)
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
	}
	per := float64(b.N) * steps
	b.ReportMetric(float64(spent.Nanoseconds())/per, "finalize-ns/step")
	b.ReportMetric(float64(allocated)/per, "finalize-B/step")
	b.ReportMetric(float64(mallocs)/per, "finalize-allocs/step")
}
