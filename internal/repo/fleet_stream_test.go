package repo

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// phasedSessionRecords generates n step records whose op mix switches
// halfway through the run — two clean phases for the streaming
// analyzer to find while records are still arriving.
func phasedSessionRecords(session, n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	var ts simclock.Time
	for i := 0; i < n; i++ {
		step := int64(i)
		ops := []string{"InfeedDequeueTuple", "fusion", "Conv2D"}
		if i >= n/2 {
			ops = []string{"ArgMax", "Mean", "TopKV2"}
		}
		events := make([]trace.Event, 0, len(ops))
		for _, op := range ops {
			events = append(events, trace.Event{
				Name: op, Device: trace.TPU, Start: ts, Dur: 100, Step: step,
			})
			ts = ts.Add(100)
		}
		recs = append(recs, trace.Reduce(int64(i), events[0].Start, events, 0.1, 0.5))
	}
	return recs
}

// TestFleetStreamEvents is the streaming acceptance test: 8 concurrent
// collection sessions, each with a mid-run phase change, must emit
// stream.phase.* obs events while the collection is in flight and the
// per-session phase counters must add up at finalize.
func TestFleetStreamEvents(t *testing.T) {
	reg := obs.NewRegistry(512)
	f, srv, _ := newFleetUnderTest(t, FleetOptions{
		MaxSessions: 8,
		QueueSize:   16,
		Obs:         reg,
	})

	const sessions = 8
	const perSession = 60
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rpc.Pipe(srv)
			defer c.Close()
			fc, err := OpenResilient(c, OpenRequest{
				RunID: fmt.Sprintf("stream-run-%d", i), Workload: "synthetic",
			})
			if err != nil {
				errs[i] = err
				return
			}
			if err := fc.AppendBatch(phasedSessionRecords(i, perSession)); err != nil {
				errs[i] = err
				return
			}
			if _, err := fc.Finalize(); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	// Two phases per session: 2 opens, 2 closes each.
	if got := f.sm.opened.Value(); got != 2*sessions {
		t.Fatalf("fleet.stream.phases.opened = %d, want %d", got, 2*sessions)
	}
	if got := f.sm.closed.Value(); got != 2*sessions {
		t.Fatalf("fleet.stream.phases.closed = %d, want %d", got, 2*sessions)
	}

	var opens, closes, summaries int
	for _, ev := range reg.Events() {
		switch {
		case ev.Scope == "stream.phase" && ev.Name == "open":
			opens++
		case ev.Scope == "stream.phase" && ev.Name == "close":
			closes++
		case ev.Scope == "stream" && ev.Name == "summary":
			summaries++
		}
	}
	if opens != 2*sessions || closes != 2*sessions {
		t.Fatalf("stream.phase events: %d opens, %d closes; want %d each", opens, closes, 2*sessions)
	}
	if summaries != sessions {
		t.Fatalf("stream summary events = %d, want %d", summaries, sessions)
	}
}
