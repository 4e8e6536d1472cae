// Command tpuprof reproduces the CLOUD-TPU-PROFILER command-line tool the
// paper contrasts TPUPoint against: it grabs a single bounded profile
// window from a running (simulated) TPU over the RPC interface.
//
// Its limits are the real tool's limits, which motivate TPUPoint: it
// cannot be integrated into training code, only sees a bounded window
// (at most 60,000 ms / 1,000,000 events), and only offers post-hoc
// insight into that window.
//
// Usage:
//
//	tpuprof -workload bert-squad          # in-process demo run
//	tpuprof -addr 127.0.0.1:8470          # profile a served TPU
//	tpuprof -addr ... -retries 5 -timeout 10s -backoff 50ms
//	tpuprof -addr ... -sessions 8         # concurrent fleet-style grabs
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cliflag"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "bert-squad", "workload for the in-process demo run")
		addr      = flag.String("addr", "", "profile a remote TPU service at this TCP address instead")
		steps     = flag.Int("steps", 200, "demo run train steps")
		retries   = flag.Int("retries", 3, "transport retries per request before giving up")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = wait forever)")
		backoff   = flag.Duration("backoff", 50*time.Millisecond, "base reconnect backoff (doubles per attempt)")
		sessions  = flag.Int("sessions", 1, "concurrent profile sessions against -addr, one connection each (exercises the server's -max-conns cap; busy refusals are retried with backoff)")
		endpoints = flag.String("endpoints", "", "comma-separated replica endpoints to profile against; the client fails over between them and follows redirects (mutually exclusive with -addr)")
		metrics   = flag.String("metrics", "", "observability sink: a host:port serves live JSON snapshots over HTTP, anything else is a file the final snapshot is written to")
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
	if *addr != "" && *endpoints != "" {
		fatal(fmt.Errorf("-addr and -endpoints are mutually exclusive"))
	}
	eps, err := cliflag.Endpoints(*endpoints)
	if err != nil {
		fatal(err)
	}

	var resp *tpu.ProfileResponse
	if *addr != "" || len(eps) > 0 {
		// The resilient path: redial on transport failure with capped
		// exponential backoff; a circuit breaker turns a dead endpoint
		// into a prompt error instead of a retry storm. With -endpoints,
		// the client holds the whole replica set and fails over between
		// members. With -sessions N, N clients each hold their own
		// connection, the way a fleet of profiling hosts would; a
		// conn-capped server answers the excess with a transient busy
		// refusal they back off and retry.
		fetch := func() (*tpu.ProfileResponse, error) {
			opts := rpc.ReconnectOptions{
				CallTimeout: *timeout,
				MaxRetries:  *retries,
				BaseBackoff: *backoff,
				Obs:         reg,
			}
			if len(eps) > 0 {
				opts.Endpoints = eps
			} else {
				opts.Dial = func() (net.Conn, error) { return net.Dial("tcp", *addr) }
			}
			client, err := rpc.NewReconnectClient(opts)
			if err != nil {
				return nil, err
			}
			defer client.Close()
			raw, err := client.Call(tpu.MethodProfile, nil)
			if err != nil {
				return nil, err
			}
			return tpu.UnmarshalProfileResponse(raw)
		}
		if *sessions <= 1 {
			if resp, err = fetch(); err != nil {
				fatal(err)
			}
		} else {
			responses := make([]*tpu.ProfileResponse, *sessions)
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
				if resp == nil {
					resp = responses[i]
				}
			}
			fmt.Printf("sessions: %d/%d fetched a profile window\n", ok, *sessions)
			if resp == nil {
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
		svc := runner.ProfileService()
		r := svc.NextWindow()
		resp = &r
	}

	fmt.Printf("profile window: [%.1fms, %.1fms) — %d events, truncated=%v\n",
		float64(resp.WindowStart)/1000, float64(resp.WindowEnd)/1000,
		len(resp.Events), resp.Truncated)
	fmt.Printf("tpu idle: %.1f%%   mxu utilization: %.1f%%\n",
		100*resp.IdleFrac, 100*resp.MXUUtil)
	if resp.Truncated {
		fmt.Println("note: execution continued past the window; this tool cannot see it (use TPUPoint)")
	}

	rec := trace.Reduce(0, resp.WindowStart, resp.Events, resp.IdleFrac, resp.MXUUtil)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpuprof:", err)
	os.Exit(1)
}
