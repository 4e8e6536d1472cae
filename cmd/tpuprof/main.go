// Command tpuprof reproduces the CLOUD-TPU-PROFILER command-line tool the
// paper contrasts TPUPoint against: it grabs a single bounded profile
// window from a running (simulated) TPU over the RPC interface.
//
// Its limits are the real tool's limits, which motivate TPUPoint: it
// cannot be integrated into training code, only sees a bounded window
// (at most 60,000 ms / 1,000,000 events), and only offers post-hoc
// insight into that window.
//
// It reads its one window through the profiler's own clients — in
// process, or over the rpc transport with -addr — so the window is
// reduced to a profile record as it is read and never held whole, and
// prints from that record.
//
// Usage:
//
//	tpuprof -workload bert-squad          # in-process demo run
//	tpuprof -addr 127.0.0.1:8470          # profile a served TPU
//	tpuprof -addr a:8470,b:8470           # fail over across a replica set
//	tpuprof -addr ... -retries 5 -timeout 10s -backoff 50ms
//	tpuprof -addr ... -sessions 8         # concurrent fleet-style grabs
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cliflag"
	"repro/internal/core/profiler"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "bert-squad", "workload for the in-process demo run")
		addr     = flag.String("addr", "", "profile a remote TPU service at this comma-separated TCP address list instead (multiple addresses = a replica set; the client fails over between them and follows redirects)")
		steps    = flag.Int("steps", 200, "demo run train steps")
		retries  = flag.Int("retries", 3, "transport retries per request before giving up")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = wait forever)")
		backoff  = flag.Duration("backoff", 50*time.Millisecond, "base reconnect backoff (doubles per attempt)")
		sessions = flag.Int("sessions", 1, "concurrent profile sessions against -addr, one connection each (exercises the server's -max-conns cap; busy refusals are retried with backoff)")
		metrics  = flag.String("metrics", "", "observability sink: a host:port serves live JSON snapshots over HTTP, anything else is a file the final snapshot is written to")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry(0)
		flush, err := cliflag.MetricsSink("tpuprof", *metrics, os.Stdout, reg, nil, nil)
		if err != nil {
			fatal(err)
		}
		defer flush()
	}
	eps, err := cliflag.Endpoints(*addr)
	if err != nil {
		fatal(err)
	}

	var rec *trace.ProfileRecord
	if len(eps) > 0 {
		// The resilient path: redial on transport failure with capped
		// exponential backoff; a circuit breaker turns a dead endpoint
		// into a prompt error instead of a retry storm. With several
		// -addr endpoints, the client holds the whole replica set and
		// fails over between members. With -sessions N, N clients each
		// hold their own connection, the way a fleet of profiling hosts
		// would; a conn-capped server answers the excess with a
		// transient busy refusal they back off and retry.
		fetch := func() (*trace.ProfileRecord, error) {
			client, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
				Endpoints:   eps,
				CallTimeout: *timeout,
				MaxRetries:  *retries,
				BaseBackoff: *backoff,
				Obs:         reg,
			})
			if err != nil {
				return nil, err
			}
			defer client.Close()
			return profileWindow(&profiler.RPCClient{Conn: client})
		}
		if *sessions <= 1 {
			if rec, err = fetch(); err != nil {
				fatal(err)
			}
		} else {
			responses := make([]*trace.ProfileRecord, *sessions)
			errs := make([]error, *sessions)
			var wg sync.WaitGroup
			for i := 0; i < *sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					responses[i], errs[i] = fetch()
				}(i)
			}
			wg.Wait()
			ok := 0
			for i := range responses {
				if errs[i] != nil {
					fmt.Fprintf(os.Stderr, "tpuprof: session %d: %v\n", i, errs[i])
					continue
				}
				ok++
				if rec == nil {
					rec = responses[i]
				}
			}
			fmt.Printf("sessions: %d/%d fetched a profile window\n", ok, *sessions)
			if rec == nil {
				fatal(fmt.Errorf("all %d sessions failed", *sessions))
			}
		}
	} else {
		w, err := workloads.Get(*workload)
		if err != nil {
			fatal(err)
		}
		runner, err := estimator.New(w, estimator.Options{Steps: *steps})
		if err != nil {
			fatal(err)
		}
		if err := runner.Run(); err != nil {
			fatal(err)
		}
		// One request, like the real tool: whatever fits the window.
		if rec, err = profileWindow(&profiler.ServiceClient{Service: runner.ProfileService()}); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("profile window: [%.1fms, %.1fms) — %d events, truncated=%v\n",
		float64(rec.WindowStart)/1000, float64(rec.WindowEnd)/1000,
		rec.NumEvents, rec.Truncated)
	fmt.Printf("tpu idle: %.1f%%   mxu utilization: %.1f%%\n",
		100*rec.IdleFrac, 100*rec.MXUUtil)
	if rec.Truncated {
		fmt.Println("note: execution continued past the window; this tool cannot see it (use TPUPoint)")
	}

	steps2 := rec.Steps
	windowOps := trace.MergeSteps(steps2)
	for _, dev := range []trace.Device{trace.TPU, trace.Host} {
		fmt.Printf("top %s ops in the window:\n", dev)
		for _, op := range trace.TopOf(windowOps, dev, 5) {
			fmt.Printf("  %-32s x%-8d %10.1fms\n", op.Name, op.Count, op.Total.Milliseconds())
		}
	}
	// Per-step summary (the window's coarse repetition structure).
	var ids []int64
	for _, s := range steps2 {
		ids = append(ids, s.Step)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > 0 {
		fmt.Printf("steps covered: %d (first %d, last %d)\n", len(ids), ids[0], ids[len(ids)-1])
	}
	if line := reg.Snapshot().SummaryLine(); line != "" {
		fmt.Printf("run summary: %s\n", line)
	}
}

// profileWindow fetches one window through c, reduced to its record; an
// empty window is an empty record.
func profileWindow(c profiler.Client) (*trace.ProfileRecord, error) {
	w, err := c.NextProfile(0)
	if err != nil {
		return nil, err
	}
	if w.Record == nil {
		return &trace.ProfileRecord{}, nil
	}
	return w.Record, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpuprof:", err)
	os.Exit(1)
}
