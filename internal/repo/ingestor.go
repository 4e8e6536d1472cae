// Group-commit ingest lane: the write-side throughput half of the
// replicated collector.
//
// The repository has one save protocol, Repo.commitSaves: per shard it
// touches, a round of k saves costs k blob Puts and ONE manifest CAS,
// the round's commit point. Repo.Save is a round of one on the
// caller's goroutine, so k concurrent finalizes pay k manifest updates
// and at 1000+ agents those index round-trips dominate. An Ingestor is the
// queue in front of the same protocol: it funnels a replica's saves
// through one apply goroutine that drains its queue in rounds, so k
// saves cost O(shards touched) index round-trips instead of O(k).
//
// Batching is safe because of replica placement (replica.go): a
// replica is the sole writer of its shards, so the lane's manifest CAS
// does not race another writer in normal operation (and a run another
// writer does slip in is answered ErrRunExists, exactly as for Save).
// Replica count is the scaling knob — R replicas run R independent
// lanes over disjoint shards, so fleet-wide ingest throughput grows
// with R while per-run durability semantics are Save's by construction.
package repo

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrIngestorClosed is returned by Save after Close.
var ErrIngestorClosed = errors.New("repo: ingestor closed")

// DefaultIngestBatch caps how many queued saves one commit round
// absorbs. 64 matches the manifest seq-block lease: big enough that a
// finalize stampede collapses to a handful of CAS writes, small enough
// that one round's blobs sit comfortably in memory.
const DefaultIngestBatch = 64

// ingestQueue bounds pending saves; Save blocks (never sheds) when the
// queue is full — backpressure, not loss. Four rounds' worth keeps the
// apply goroutine fed while one round commits.
const ingestQueue = 4 * DefaultIngestBatch

// IngestorOptions configure a group-commit lane.
type IngestorOptions struct {
	// Replica, when set, makes the lane refuse saves for shards this
	// replica does not own — a misrouted finalize must fail loudly, not
	// silently break the single-writer invariant batching relies on.
	Replica *ReplicaConfig
	// Obs receives lane metrics.
	Obs *obs.Registry
}

type ingestReq struct {
	blob []byte
	resp chan ingestResp
}

type ingestResp struct {
	info RunInfo
	err  error
}

// Ingestor is a single group-commit save lane over one repository.
// Construct one per collector replica (NewIngestor), point the fleet
// at it (FleetOptions.Ingest), and Close it at shutdown to drain.
type Ingestor struct {
	repo    *Repo
	replica *ReplicaConfig

	ch   chan ingestReq
	done chan struct{}

	sendMu sync.Mutex
	closed bool

	batches *obs.Counter
	runs    *obs.Counter
	maxSeen *obs.Gauge
}

// NewIngestor starts a lane's apply goroutine.
func NewIngestor(r *Repo, opts IngestorOptions) *Ingestor {
	g := &Ingestor{
		repo:    r,
		replica: opts.Replica,
		ch:      make(chan ingestReq, ingestQueue),
		done:    make(chan struct{}),
		batches: opts.Obs.Counter("repo.ingest.batches"),
		runs:    opts.Obs.Counter("repo.ingest.batched_runs"),
		maxSeen: opts.Obs.Gauge("repo.ingest.batch.max"),
	}
	go g.run()
	return g
}

// Save queues blob for the next commit round and waits for its
// outcome: Repo.Save's, with the index round-trips amortized across the
// round.
func (g *Ingestor) Save(blob []byte) (RunInfo, error) {
	req := ingestReq{blob: blob, resp: make(chan ingestResp, 1)}
	g.sendMu.Lock()
	if g.closed {
		g.sendMu.Unlock()
		return RunInfo{}, ErrIngestorClosed
	}
	g.ch <- req
	g.sendMu.Unlock()
	r := <-req.resp
	return r.info, r.err
}

// Close drains queued saves (every accepted Save still gets its
// answer) and stops the lane. Idempotent.
func (g *Ingestor) Close() {
	g.sendMu.Lock()
	if !g.closed {
		g.closed = true
		close(g.ch)
	}
	g.sendMu.Unlock()
	<-g.done
}

func (g *Ingestor) run() {
	defer close(g.done)
	for first := range g.ch {
		batch := []ingestReq{first}
		for len(batch) < DefaultIngestBatch {
			select {
			case req, ok := <-g.ch:
				if !ok {
					g.commit(batch)
					return
				}
				batch = append(batch, req)
			default:
				goto full
			}
		}
	full:
		g.commit(batch)
	}
}

// commit runs one group-commit round through the repository's save
// path and hands each request its answer.
func (g *Ingestor) commit(batch []ingestReq) {
	g.batches.Inc()
	g.runs.Add(int64(len(batch)))
	if int64(len(batch)) > g.maxSeen.Value() {
		g.maxSeen.Set(int64(len(batch)))
	}
	blobs := make([][]byte, len(batch))
	for i, req := range batch {
		blobs[i] = req.blob
	}
	g.repo.commitSaves(blobs, g.replica, func(i int, info RunInfo, err error) {
		batch[i].resp <- ingestResp{info: info, err: err}
	})
}
