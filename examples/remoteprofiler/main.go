// Remoteprofiler: the Cloud TPU deployment shape — training serves its
// profile endpoint over TCP (the gRPC path) and a TPUPoint-Profiler in
// another process attaches through a client stub, with a breakpoint that
// stops profiling partway through the run.
//
// The client side uses the resilient transport: a reconnecting client
// that redials with backoff if the link drops, and a profiler configured
// to retry transient failures, mark unrecoverable windows as gaps, and
// report degradation instead of dying.
//
//	go run ./examples/remoteprofiler
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/core/profiler"
	"repro/internal/estimator"
	"repro/internal/rpc"
	"repro/internal/tpu"
	"repro/internal/workloads"
)

func main() {
	// --- "TPU side": train and serve the profile service over TCP ------
	w := workloads.MustGet("dcgan-cifar10")
	runner, err := estimator.New(w, estimator.Options{Steps: 400})
	if err != nil {
		log.Fatal(err)
	}
	srv := rpc.NewServer()
	runner.ProfileService().Register(srv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	fmt.Printf("profile service for %s listening on %s\n", w.Name, l.Addr())

	// --- "client side": dial and attach a profiler with a breakpoint ---
	// A ReconnectClient survives dropped links: on transport failure it
	// redials (capped exponential backoff, deterministic jitter) and a
	// circuit breaker converts a dead endpoint into a prompt error.
	conn, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
		Endpoints:   []string{l.Addr().String()},
		CallTimeout: 10 * time.Second,
		MaxRetries:  3,
		BaseBackoff: 25 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	// Query the device first, like any tool would.
	raw, err := conn.Call(tpu.MethodStatus, nil)
	if err != nil {
		log.Fatal(err)
	}
	status, err := tpu.UnmarshalStatusResponse(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote device: %s, %d MXUs, %.0f peak TFLOPS\n",
		status.Version, status.MXUs, status.PeakTFLOPS)

	p := profiler.New(&profiler.RPCClient{Conn: conn}, profiler.Options{
		BreakpointStep: 250, // stop profiling here; training continues
		// Resilience: retry transient window failures, record a Gap
		// marker (not a crash) when a window is truly lost, and log
		// degradation as it happens.
		MaxRetries: 3,
		Backoff:    10 * time.Millisecond,
		OnDegraded: func(err error) { log.Printf("profiler degraded: %v", err) },
	})
	if err := p.Start(false); err != nil {
		log.Fatal(err)
	}

	// Training proceeds while the profiler polls over the wire.
	if err := runner.Run(); err != nil {
		log.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		log.Fatal(err)
	}

	rep, err := analyzer.Analyze(w.Name, records, analyzer.OLSAlgo, analyzer.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d records up to the step-250 breakpoint (%d steps seen)\n",
		len(records), rep.Steps)
	fmt.Printf("phases: %d, top-3 cover %.1f%%, window idle %.1f%%\n",
		len(rep.Phases), 100*rep.CoverageTop3, 100*rep.IdleFrac)
	fmt.Printf("training itself ran to completion: %.1fs simulated, %d steps\n",
		runner.TotalTime().Seconds(), len(runner.StepTimings()))
}
