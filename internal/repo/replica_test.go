package repo

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
)

// runOwnedBy finds a run ID that hashes to a shard owned by the given
// replica under an n-shard, k-replica layout.
func runOwnedBy(t *testing.T, label string, shards int, rc *ReplicaConfig) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s-%d", label, i)
		if rc.Owner(shardIndex(id, shards)) == rc.ID {
			return id
		}
	}
	t.Fatalf("no run ID found for replica %d/%d", rc.ID, rc.Replicas)
	return ""
}

func TestReplicaConfigValidateAndOwnership(t *testing.T) {
	bad := []ReplicaConfig{
		{ID: 0, Replicas: 0},
		{ID: -1, Replicas: 2},
		{ID: 2, Replicas: 2},
		{ID: 0, Replicas: 3, Peers: []string{"a", "b"}},
	}
	for i, rc := range bad {
		if err := rc.Validate(); err == nil {
			t.Fatalf("config %d (%+v) validated", i, rc)
		}
	}
	var nilCfg *ReplicaConfig
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil config: %v", err)
	}

	rc := &ReplicaConfig{ID: 1, Replicas: 2, Peers: []string{"a", "b"}}
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	// mod-N placement: shard s -> replica s%2, and the owned sets of
	// the two replicas partition the shard space.
	owned := rc.OwnedShards(8)
	if len(owned) != 4 {
		t.Fatalf("replica 1 owns %v of 8 shards", owned)
	}
	for _, s := range owned {
		if s%2 != 1 {
			t.Fatalf("replica 1 owns shard %d", s)
		}
	}
	if rc.Endpoint(0) != "a" || rc.Endpoint(1) != "b" || rc.Endpoint(7) != "" {
		t.Fatal("endpoint lookup broken")
	}
}

// twoReplicaFleet builds one replica's fleet over the shared store.
// Each replica opens the store scoped to its owned shards, exactly as
// a real collector process would.
func twoReplicaFleet(t *testing.T, bucket Store, id int, opts FleetOptions) (*Fleet, *rpc.Server, *Repo) {
	t.Helper()
	rc := &ReplicaConfig{ID: id, Replicas: 2, Peers: []string{"replica-a", "replica-b"}}
	r, _, err := OpenShardsOwned(bucket, 4, rc.OwnedShards(4))
	if err != nil {
		t.Fatal(err)
	}
	opts.Replica = rc
	f := NewFleet(r, opts)
	srv := rpc.NewServer()
	f.Register(srv)
	t.Cleanup(srv.Close)
	return f, srv, r
}

func TestReplicaOpenRedirectsToOwner(t *testing.T) {
	bucket := newBucket(t)
	// Replica 0 creates the layout first; replica 1 adopts it.
	_, srv0, _ := twoReplicaFleet(t, bucket, 0, FleetOptions{})
	_, srv1, _ := twoReplicaFleet(t, bucket, 1, FleetOptions{})

	cfg1 := &ReplicaConfig{ID: 1, Replicas: 2}
	foreign := runOwnedBy(t, "owned-by-b", 4, cfg1)

	// Misplaced open: replica 0 must redirect to replica 1's endpoint
	// without allocating anything.
	c0 := rpc.Pipe(srv0)
	defer c0.Close()
	_, err := OpenResilient(c0, OpenRequest{RunID: foreign, Workload: "synthetic"})
	var redir *rpc.RedirectError
	if !errors.As(err, &redir) {
		t.Fatalf("open on the wrong replica: err = %v, want redirect", err)
	}
	if redir.Endpoint != "replica-b" {
		t.Fatalf("redirect endpoint = %q, want replica-b", redir.Endpoint)
	}
	if !rpc.IsTransient(err) {
		t.Fatal("placement redirect must classify transient")
	}

	// The owner accepts the same open, and scopes the token.
	c1 := rpc.Pipe(srv1)
	defer c1.Close()
	fc, err := OpenResilient(c1, OpenRequest{RunID: foreign, Workload: "synthetic"})
	if err != nil {
		t.Fatalf("open on the owner: %v", err)
	}
	if !strings.HasPrefix(fc.Token(), "r1.") {
		t.Fatalf("token %q not in replica 1's namespace", fc.Token())
	}
	if err := fc.Abort(); err != nil {
		t.Fatal(err)
	}
}

// dialFabric maps endpoint names to live rpc servers; nil entries
// refuse dials. Remapping a name models a replica crash + restart.
type dialFabric struct {
	mu      sync.Mutex
	servers map[string]*rpc.Server
}

func (d *dialFabric) set(name string, s *rpc.Server) {
	d.mu.Lock()
	d.servers[name] = s
	d.mu.Unlock()
}

func (d *dialFabric) dial(name string) (net.Conn, error) {
	d.mu.Lock()
	s := d.servers[name]
	d.mu.Unlock()
	if s == nil {
		return nil, errors.New("dial " + name + ": connection refused")
	}
	cc, sc := net.Pipe()
	go s.ServeConn(sc)
	return cc, nil
}

// TestReplicaEndpointSetFollowsRedirect drives a session through an
// endpoint-set ReconnectClient aimed at the WRONG replica: the typed
// redirect re-aims it at the owner and the whole session — open,
// append, finalize — lands there.
func TestReplicaEndpointSetFollowsRedirect(t *testing.T) {
	bucket := newBucket(t)
	_, srv0, _ := twoReplicaFleet(t, bucket, 0, FleetOptions{})
	_, srv1, r1 := twoReplicaFleet(t, bucket, 1, FleetOptions{})
	fab := &dialFabric{servers: map[string]*rpc.Server{"replica-a": srv0, "replica-b": srv1}}

	rc, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
		Endpoints:    []string{"replica-a"},
		DialEndpoint: fab.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	foreign := runOwnedBy(t, "redirected", 4, &ReplicaConfig{ID: 1, Replicas: 2})
	fc, err := OpenResilient(rc, OpenRequest{RunID: foreign, Workload: "synthetic"})
	if err != nil {
		t.Fatalf("open through the endpoint set: %v", err)
	}
	const n = 25
	for _, rec := range sessionRecords(0, n) {
		if err := fc.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	info, err := fc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != n {
		t.Fatalf("archived %d records, want %d", info.Records, n)
	}
	if got := rc.CurrentEndpoint(); got != "replica-b" {
		t.Fatalf("session served from %q, want the owner", got)
	}
	if _, _, err := r1.Get(foreign); err != nil {
		t.Fatalf("run not in the shared store: %v", err)
	}
}

// TestReplicaRecoverSessionsAdoptsOwnedOnly parks one session per
// replica, then runs each survivor's RecoverSessions: each must adopt
// exactly its own shard subset's sessions.
func TestReplicaRecoverSessionsAdoptsOwnedOnly(t *testing.T) {
	bucket := newBucket(t)
	f0, srv0, _ := twoReplicaFleet(t, bucket, 0, FleetOptions{})
	f1, srv1, _ := twoReplicaFleet(t, bucket, 1, FleetOptions{})

	runA := runOwnedBy(t, "park-a", 4, &ReplicaConfig{ID: 0, Replicas: 2})
	runB := runOwnedBy(t, "park-b", 4, &ReplicaConfig{ID: 1, Replicas: 2})
	var tokens []string
	for _, p := range []struct {
		srv *rpc.Server
		run string
	}{{srv0, runA}, {srv1, runB}} {
		c := rpc.Pipe(p.srv)
		fc, err := OpenResilient(c, OpenRequest{RunID: p.run, Workload: "synthetic"})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range sessionRecords(0, 5) {
			if err := fc.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		tokens = append(tokens, fc.Token())
		c.Close() // abandon mid-session: parked, not finalized
	}

	parked0, err := f0.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	parked1, err := f1.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked0) != 1 || parked0[0] != tokens[0] {
		t.Fatalf("replica 0 adopted %v, want [%s]", parked0, tokens[0])
	}
	if len(parked1) != 1 || parked1[0] != tokens[1] {
		t.Fatalf("replica 1 adopted %v, want [%s]", parked1, tokens[1])
	}
}

// TestReplicaRemovalSurvivorAdopts reconfigures a 2-replica fleet down
// to one: the survivor's RecoverSessions must adopt the removed
// replica's parked session (its token keeps the dead replica's "r1."
// prefix — ownership is recomputed, not parsed), and the client's
// resume must complete the run on the survivor.
func TestReplicaRemovalSurvivorAdopts(t *testing.T) {
	bucket := newBucket(t)
	_, srv1, _ := twoReplicaFleet(t, bucket, 1, FleetOptions{})

	run := runOwnedBy(t, "orphaned", 4, &ReplicaConfig{ID: 1, Replicas: 2})
	c := rpc.Pipe(srv1)
	fc, err := OpenResilient(c, OpenRequest{RunID: run, Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	recs := sessionRecords(2, 30)
	for _, rec := range recs[:12] {
		if err := fc.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	token := fc.Token()
	c.Close()
	srv1.Close() // replica 1 is gone for good

	// Survivor reconfigured to own everything.
	solo := &ReplicaConfig{ID: 0, Replicas: 1, Peers: []string{"replica-a"}}
	r0, _, err := OpenShardsOwned(bucket, 4, solo.OwnedShards(4))
	if err != nil {
		t.Fatal(err)
	}
	f0 := NewFleet(r0, FleetOptions{Replica: solo})
	srv0 := rpc.NewServer()
	f0.Register(srv0)
	defer srv0.Close()

	parked, err := f0.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parked) != 1 || parked[0] != token {
		t.Fatalf("survivor adopted %v, want [%s]", parked, token)
	}

	c0 := rpc.Pipe(srv0)
	defer c0.Close()
	fc2, accepted, err := ResumeResilient(c0, token)
	if err != nil {
		t.Fatalf("resume on the survivor: %v", err)
	}
	if accepted != 12 {
		t.Fatalf("survivor has %d durable records, want 12", accepted)
	}
	for _, rec := range recs[accepted:] {
		if err := fc2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	info, err := fc2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("archived %d records, want %d (exactly once)", info.Records, len(recs))
	}
}

// TestReplicaKillFailoverExactlyOnce is the acceptance-criteria test:
// an agent streams through an endpoint-set client while its run's
// owning replica is killed and restarted mid-stream. The ResilientClient
// resumes from the server's durable count; the archived run must hold
// every record exactly once. It runs over both stores: the DirStore is
// what real replica processes share.
func TestReplicaKillFailoverExactlyOnce(t *testing.T) {
	for _, st := range testStores {
		t.Run(st.name, func(t *testing.T) { testReplicaKillFailoverExactlyOnce(t, st.open(t)) })
	}
}

func testReplicaKillFailoverExactlyOnce(t *testing.T, bucket Store) {
	reg := obs.NewRegistry(64)
	_, srv0, _ := twoReplicaFleet(t, bucket, 0, FleetOptions{})
	_, srv1, _ := twoReplicaFleet(t, bucket, 1, FleetOptions{Obs: reg})
	fab := &dialFabric{servers: map[string]*rpc.Server{"replica-a": srv0, "replica-b": srv1}}

	ns := 0
	rc, err := rpc.NewReconnectClient(rpc.ReconnectOptions{
		Endpoints:    []string{"replica-a", "replica-b"},
		DialEndpoint: fab.dial,
		MaxRetries:   8,
		Sleep:        func(time.Duration) { ns++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	run := runOwnedBy(t, "failover", 4, &ReplicaConfig{ID: 1, Replicas: 2})
	agent, err := OpenResilient(rc, OpenRequest{RunID: run, Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	recs := sessionRecords(3, 60)
	for _, rec := range recs[:25] {
		if err := agent.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the owner: the process dies, its in-memory sessions with it.
	// Only the shared store survives.
	fab.set("replica-b", nil)
	srv1.Close()

	// Restart it: fresh repo (scoped recovery), fresh fleet, recovered
	// sessions, same endpoint name.
	f1b, srv1b, _ := twoReplicaFleet(t, bucket, 1, FleetOptions{})
	if _, err := f1b.RecoverSessions(); err != nil {
		t.Fatal(err)
	}
	fab.set("replica-b", srv1b)

	// The stream continues: the dead conn fails over, the restarted
	// owner answers "unknown session", and the agent resumes + resends
	// the unacked tail.
	for _, rec := range recs[25:] {
		if err := agent.Append(rec); err != nil {
			t.Fatalf("append across the kill: %v", err)
		}
	}
	info, err := agent.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("archived %d records, want %d (no loss, no duplicates)", info.Records, len(recs))
	}
	if agent.Resumes() == 0 {
		t.Fatal("the kill never exercised a resume")
	}

	// Independent verification over the shared store: the archived run
	// decodes to exactly the sent records, and the repository is
	// structurally clean.
	r, _, err := Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := r.Get(run)
	if err != nil {
		t.Fatal(err)
	}
	if a.RecordCount() != int64(len(recs)) {
		t.Fatalf("stored archive holds %d records, want %d", a.RecordCount(), len(recs))
	}
	fr, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Clean() {
		t.Fatalf("fsck after failover: %+v", fr.Issues)
	}
}

// TestLeaseExpirySweepVsConcurrentResume races a lease-expiry sweep
// against concurrent fleet.Resume calls for the SAME token through two
// collector handles over one shared store. Whatever interleaving the
// scheduler picks, no records may be lost and the run must finalize
// with the full count.
func TestLeaseExpirySweepVsConcurrentResume(t *testing.T) {
	bucket := newBucket(t)
	now := time.Unix(2000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		nowMu.Lock()
		now = now.Add(d)
		nowMu.Unlock()
	}

	mk := func() (*Fleet, *rpc.Server) {
		r, _, err := Open(bucket)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFleet(r, FleetOptions{Lease: 50 * time.Millisecond, Now: clock})
		srv := rpc.NewServer()
		f.Register(srv)
		t.Cleanup(srv.Close)
		return f, srv
	}
	_, srvA := mk()
	_, srvB := mk()

	cA := rpc.Pipe(srvA)
	defer cA.Close()
	fc, err := OpenResilient(cA, OpenRequest{RunID: "sweep-race", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	recs := sessionRecords(4, 40)
	for _, rec := range recs[:10] {
		if err := fc.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	token := fc.Token()

	// Hammer: both handles resume the same token while the lease clock
	// jumps past expiry between rounds, so sweeps at handler entry race
	// the resume's evict-and-register on both fleets.
	var wg sync.WaitGroup
	for w, srv := range map[int]*rpc.Server{0: srvA, 1: srvB} {
		wg.Add(1)
		go func(w int, srv *rpc.Server) {
			defer wg.Done()
			c := rpc.Pipe(srv)
			defer c.Close()
			for i := 0; i < 20; i++ {
				advance(60 * time.Millisecond) // every lease is now expired
				fc, accepted, err := ResumeResilient(c, token)
				if err != nil {
					// Losing the eviction race to the other handle's
					// resume is fine; losing the durable state is not.
					if strings.Contains(err.Error(), "unknown session token") {
						t.Errorf("worker %d: durable session state vanished: %v", w, err)
						return
					}
					continue
				}
				if accepted < 10 {
					t.Errorf("worker %d: resume regressed to %d durable records", w, accepted)
					return
				}
				_ = fc
			}
		}(w, srv)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// One final resume owns the session; stream the tail and land it.
	cB := rpc.Pipe(srvB)
	defer cB.Close()
	fcFinal, accepted, err := ResumeResilient(cB, token)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 10 {
		t.Fatalf("final resume at %d durable records, want 10", accepted)
	}
	for _, rec := range recs[10:] {
		if err := fcFinal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	info, err := fcFinal.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(len(recs)) {
		t.Fatalf("archived %d records, want %d", info.Records, len(recs))
	}
}

// TestOpenShardsOwnedScopesRecovery proves a starting replica cannot
// reclaim a live peer's in-flight save: it sweeps only its owned
// shards.
func TestOpenShardsOwnedScopesRecovery(t *testing.T) {
	bucket := newBucket(t)
	r0, _, err := OpenShards(bucket, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r0.Save(archiveBlob(t, "seed", 1, 0)); err != nil {
		t.Fatal(err)
	}

	// A "live peer" (replica 0) has its blob written but not yet
	// indexed — mid-save, not crashed.
	inflight := runOwnedBy(t, "inflight", 2, &ReplicaConfig{ID: 0, Replicas: 2})
	if _, err := bucket.Put(runObject(inflight), []byte("peer bytes")); err != nil {
		t.Fatal(err)
	}

	// Replica 1 starts up owning only shard 1: the peer's blob must
	// survive untouched.
	_, rep, err := OpenShardsOwned(bucket, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !bucket.Exists(runObject(inflight)) {
		t.Fatalf("scoped recovery reclaimed %v, a live peer's in-flight blob among them", rep.Reclaimed)
	}

	// A FULL open (sole writer, e.g. offline fsck) still reclaims it.
	_, rep, err = Open(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Reclaimed, []string{runObject(inflight)}) {
		t.Fatalf("full recovery reclaimed %v, want the orphan", rep.Reclaimed)
	}
}

// TestOpenShardsOwnedRefusesOtherCount: a replica's owned set is
// computed from the count it asked for, while placement follows the
// count the store records. Reopening a 12-shard store as replica 1 of 2
// with the default 4x2 = 8 used to succeed and leave shards 9 and 11 —
// which placement says this replica owns — unswept. A different count
// is an error; the stored count sweeps them.
func TestOpenShardsOwnedRefusesOtherCount(t *testing.T) {
	bucket := newBucket(t)
	r0, _, err := OpenShards(bucket, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r0.Save(archiveBlob(t, "seed", 1, 0)); err != nil { // makes the layout durable
		t.Fatal(err)
	}
	// A crashed save on a shard replica 1 owns: blob written, never indexed.
	rc := &ReplicaConfig{ID: 1, Replicas: 2}
	cut := runOwnedBy(t, "cut", 12, rc)
	if _, err := bucket.Put(runObject(cut), []byte("orphan bytes")); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenShardsOwned(bucket, 8, rc.OwnedShards(8)); err == nil {
		t.Fatal("a 12-shard store opened as 8 shards: some owned shards would never be swept")
	}
	if !bucket.Exists(runObject(cut)) {
		t.Fatal("the refused open wrote to the store")
	}
	_, rep, err := OpenShardsOwned(bucket, 12, rc.OwnedShards(12))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Reclaimed, []string{runObject(cut)}) || bucket.Exists(runObject(cut)) {
		t.Fatalf("the orphan on an owned shard not reclaimed by its owner: %v", rep.Reclaimed)
	}
}

// TestReplicaCompactWritesOnlyOwnedShards: a replica's Compact packs
// only runs on the shards it owns, so it never swaps a peer's manifest
// — the single-writer rule ReplicaConfig documents.
func TestReplicaCompactWritesOnlyOwnedShards(t *testing.T) {
	const shards = 4
	bucket := newBucket(t)
	seed, _, err := OpenShards(bucket, shards)
	if err != nil {
		t.Fatal(err)
	}
	ids := saveN(t, seed, "dcgan", 16)
	ss := shardSet{n: shards}
	_, before, err := seed.loadAllShards(ss)
	if err != nil {
		t.Fatal(err)
	}

	rc := &ReplicaConfig{ID: 1, Replicas: 2}
	r1, _, err := OpenShardsOwned(bucket, shards, rc.OwnedShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r1.Compact(CompactOptions{})
	if err != nil || len(rep.Packs) != 1 {
		t.Fatalf("compact = %+v, %v; want one pack", rep, err)
	}
	for _, id := range rep.Packs[0].Runs {
		if owner := rc.OwnerOfRun(id, shards); owner != rc.ID {
			t.Fatalf("replica 1 packed %s, a run of replica %d", id, owner)
		}
	}
	_, after, err := seed.loadAllShards(ss)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if rc.Owner(i) != rc.ID && after[i] != before[i] {
			t.Fatalf("replica 1's Compact wrote replica 0's shard %d (generation %d -> %d)", i, before[i], after[i])
		}
	}
	for _, id := range ids {
		if _, _, err := seed.Get(id); err != nil {
			t.Fatalf("%s after compaction: %v", id, err)
		}
	}
}

// TestReplicaReopenSparesPeerPack: replica 1's Compact is parked after
// its pack Put and before its repoint, so the pack is on the store and
// no manifest references it. Replica 0 restarts meanwhile and sweeps;
// the pack's name carries a shard replica 0 does not own, so it stays,
// and the compaction completes on release.
func TestReplicaReopenSparesPeerPack(t *testing.T) {
	const shards = 4
	bucket := newBucket(t)
	seed, _, err := OpenShards(bucket, shards)
	if err != nil {
		t.Fatal(err)
	}
	ids := saveN(t, seed, "dcgan", 16)

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := &hookStore{Store: bucket, putIfErr: func(name string) error {
		if isShardManifestObject(name) {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return nil
	}}
	rc1 := &ReplicaConfig{ID: 1, Replicas: 2}
	r1, _, err := OpenShardsOwned(gate, shards, rc1.OwnedShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	compacted := make(chan error, 1)
	go func() {
		rep, err := r1.Compact(CompactOptions{})
		if err == nil && len(rep.Packs) != 1 {
			err = fmt.Errorf("compact = %+v, want one pack", rep)
		}
		compacted <- err
	}()
	select {
	case <-parked:
	case err := <-compacted:
		t.Fatalf("compaction ended before its first repoint: %v", err)
	}

	rc0 := &ReplicaConfig{ID: 0, Replicas: 2}
	_, rep, err := OpenShardsOwned(bucket, shards, rc0.OwnedShards(shards))
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("replica 0's sweep reclaimed %v beside replica 1's compaction", rep.Reclaimed)
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	r := New(bucket)
	for _, id := range ids {
		if _, _, err := r.Get(id); err != nil {
			t.Fatalf("%s after the peer's sweep: %v", id, err)
		}
	}
	if frep, err := r.Fsck(false); err != nil || !frep.Clean() {
		t.Fatalf("fsck = %+v, %v", frep, err)
	}
}

// TestReplicaLeasesSeqOnlyFromOwnedShards: a replica's NextSeq leases
// its sequence blocks from the shards it owns, so a handleOpen on one
// replica never swaps a peer's manifest — the sole-writer rule Recover
// and the ingest lane rely on. Replica 0 of 2 over 4 shards owns 0 and
// 2; eight leases write those two manifests four times each and nothing
// else, while replica 1 leases beside it and every issued sequence
// number is unique and, per handle, strictly increasing.
func TestReplicaLeasesSeqOnlyFromOwnedShards(t *testing.T) {
	const shards, leases = 4, 8
	bucket := newBucket(t)
	var mu sync.Mutex
	writes := make([]map[string]int, 2)
	handles := make([]*Repo, 2)
	for id := range handles {
		writes[id] = make(map[string]int)
		counting := &hookStore{Store: bucket, putIfErr: func(name string) error {
			if isShardManifestObject(name) {
				mu.Lock()
				writes[id][name]++
				mu.Unlock()
			}
			return nil
		}}
		rc := &ReplicaConfig{ID: id, Replicas: 2}
		r, _, err := OpenShardsOwned(counting, shards, rc.OwnedShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		handles[id] = r
	}

	seen := make(map[uint64]int)
	last := make([]uint64, len(handles))
	for i := 0; i < leases*seqBlockSize; i++ {
		for id, r := range handles {
			seq, err := r.NextSeq()
			if err != nil {
				t.Fatal(err)
			}
			if seq <= last[id] {
				t.Fatalf("replica %d issued %d after %d", id, seq, last[id])
			}
			if other, dup := seen[seq]; dup {
				t.Fatalf("seq %d issued by replica %d and replica %d", seq, other, id)
			}
			seen[seq], last[id] = id, seq
		}
	}

	ss := shardSet{n: shards}
	want := map[string]int{ss.manifestObject(0): leases / 2, ss.manifestObject(2): leases / 2}
	if !reflect.DeepEqual(writes[0], want) {
		t.Fatalf("replica 0's %d leases wrote manifests %v, want only its own: %v", leases, writes[0], want)
	}

	// A replica that owns no shard has nowhere to lease from: it refuses
	// instead of writing a peer's manifest.
	refuse := &hookStore{Store: bucket, putIfErr: func(name string) error {
		if isShardManifestObject(name) {
			t.Errorf("a replica owning no shard wrote %s", name)
		}
		return nil
	}}
	idle, _, err := OpenShardsOwned(refuse, shards, (&ReplicaConfig{ID: 5, Replicas: 6}).OwnedShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := idle.NextSeq(); err == nil {
		t.Fatalf("a replica owning no shard issued seq %d", seq)
	}
}

// TestReplicaOpenReclaimsLegacyPack: an unreferenced pack named the way
// older builds named them (no owner shard) is reclaimed by a replica's
// Open as well as a standalone one's. No current writer names a pack
// that way, so nothing can be in flight on it.
func TestReplicaOpenReclaimsLegacyPack(t *testing.T) {
	const shards = 4
	bucket := newBucket(t)
	seed, _, err := OpenShards(bucket, shards)
	if err != nil {
		t.Fatal(err)
	}
	saveN(t, seed, "dcgan", 4)
	legacy := PackPrefix + "dcgan-0123456789abcdef"
	if _, err := bucket.Put(legacy, []byte("stale pack bytes")); err != nil {
		t.Fatal(err)
	}

	rc := &ReplicaConfig{ID: 1, Replicas: 2}
	_, rep, err := OpenShardsOwned(bucket, shards, rc.OwnedShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Reclaimed, []string{legacy}) || bucket.Exists(legacy) {
		t.Fatalf("replica open reclaimed %v, want the legacy pack %s", rep.Reclaimed, legacy)
	}
	if frep, err := New(bucket).Fsck(false); err != nil || !frep.Clean() {
		t.Fatalf("fsck = %+v, %v", frep, err)
	}
}
