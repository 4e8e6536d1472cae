// Fleetcompare: the full profile-repository loop in one process — a
// fleet collection server over an in-memory repository, two profiled
// training runs streaming their records in concurrently (the way a
// fleet of training VMs would), and a cross-run diff of the archived
// results.
//
// Each run opens a collection session, sets the session's ResilientClient
// as the profiler's record store (it implements profiler.RecordStore),
// trains, and finalizes; the server analyzes the stream, packs it into
// a checksummed archive, and indexes it in the repository. The diff at
// the end aligns the two runs' phases by op-mix signature and reports
// per-phase wall-time, idle, and MXU deltas.
//
//	go run ./examples/fleetcompare
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	tpupoint "repro"
	"repro/internal/core/viz"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
)

func main() {
	// --- collection side: repository + fleet endpoint -------------------
	svc := storage.NewService()
	bucket, err := svc.CreateBucket("fleet-repo")
	if err != nil {
		log.Fatal(err)
	}
	r := repo.New(bucket)
	reg := obs.NewRegistry(64)
	fleet := repo.NewFleet(r, repo.FleetOptions{MaxSessions: 8, Obs: reg})
	srv := rpc.NewServer()
	fleet.Register(srv)
	defer srv.Close()

	// --- fleet side: two concurrent profiled runs -----------------------
	// Same workload on TPUv2 vs TPUv3 — the paper's cross-generation
	// comparison (Table III) as a repository query.
	type job struct {
		runID   string
		version tpupoint.Version
	}
	jobs := []job{{"dcgan-v2", tpupoint.V2}, {"dcgan-v3", tpupoint.V3}}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			s, err := tpupoint.NewSession("dcgan-mnist", tpupoint.Options{
				Version: j.version, Steps: 120,
			})
			if err != nil {
				log.Fatal(err)
			}
			c := rpc.Pipe(srv) // in-process; a real fleet dials TCP
			defer c.Close()
			fc, err := repo.OpenResilient(c, repo.OpenRequest{
				RunID:      j.runID,
				Workload:   s.Workload().Name,
				TPUVersion: j.version.String(),
			})
			if err != nil {
				log.Fatal(err)
			}
			p, err := s.StartProfilerTo(fc) // records stream to the server
			if err != nil {
				log.Fatal(err)
			}
			if err := s.Train(); err != nil {
				log.Fatal(err)
			}
			if _, err := p.Stop(); err != nil {
				log.Fatal(err)
			}
			info, err := fc.Finalize()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("archived %s: %d records, %d bytes\n",
				info.RunID, info.Records, info.Bytes)
		}(j)
	}
	wg.Wait()

	snap := reg.Snapshot()
	fmt.Printf("fleet: %d records in, %d archived, %d runs saved\n",
		snap.Counters["fleet.records.in"], snap.Counters["fleet.records.archived"],
		snap.Counters["fleet.runs.saved"])

	// --- query side: cross-run diff --------------------------------------
	d, err := r.Compare("dcgan-v2", "dcgan-v3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := viz.WriteDiffTable(os.Stdout, d); err != nil {
		log.Fatal(err)
	}
}
