// Replica-aware fleet collection: N collector replicas over one shared
// sharded store, with replica count as the horizontal scaling knob.
//
// Placement is deterministic and derived from the layout the PR 8
// sharding already fixed: a run ID hashes to a manifest shard
// (shardIndex), and shard s belongs to replica s mod N. Because every
// run's sessions, blob, and manifest entry all live on its shard (and
// a pack on the owner shard its name carries), a replica that owns a
// disjoint shard subset is the *sole writer* of those objects — no
// cross-replica CAS contention, the group-commit ingest lane
// (ingestor.go) can batch entries safely, and its Open may reclaim
// whatever on its shards no manifest references.
//
// A client may open a session against any replica; a replica that does
// not own the run answers with a typed rpc.RedirectError carrying the
// owner's endpoint. The redirect is transient (rpc.IsTransient), and an
// endpoint-set ReconnectClient follows it automatically. Resume routes
// the same way: any replica can read the session's durable meta from
// the shared store, compute the owner from the run ID, and redirect.
//
// Tokens are replica-scoped ("r<id>." prefix) so a session's creator is
// visible in the durable state, but ownership is always recomputed from
// the *current* config: after a replica is removed, the survivors'
// RecoverSessions adopt exactly the parked sessions whose shards they
// now own.
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/rpc"
)

// MethodFleetPing is the replica liveness/identity probe: peers use it
// to populate the fleet-wide readiness view, and operators to ask a
// collector who it is.
const MethodFleetPing = "fleet.Ping"

// ReplicaConfig places one collector replica inside a fleet of
// Replicas collectors sharing a store.
type ReplicaConfig struct {
	// ID is this replica's index in [0, Replicas).
	ID int `json:"id"`
	// Replicas is the fleet size. Shard s belongs to replica s mod
	// Replicas, so every shard has exactly one writer.
	Replicas int `json:"replicas"`
	// Peers maps replica ID -> endpoint address, used to issue
	// redirects. It may be shorter than Replicas (or empty): a missing
	// endpoint turns a would-be redirect into a plain error naming the
	// owner, which is still actionable but not self-healing.
	Peers []string `json:"peers,omitempty"`
}

// Validate checks the config is internally consistent. CLI flag
// parsing calls this; NewFleet treats an invalid config as a
// programming error.
func (rc *ReplicaConfig) Validate() error {
	if rc == nil {
		return nil
	}
	if rc.Replicas < 1 {
		return fmt.Errorf("repo: replica count %d < 1", rc.Replicas)
	}
	if rc.ID < 0 || rc.ID >= rc.Replicas {
		return fmt.Errorf("repo: replica id %d outside [0,%d)", rc.ID, rc.Replicas)
	}
	if len(rc.Peers) > 0 && len(rc.Peers) != rc.Replicas {
		return fmt.Errorf("repo: %d peer endpoints for %d replicas", len(rc.Peers), rc.Replicas)
	}
	return nil
}

// Owner maps a shard index to the replica that owns it.
func (rc *ReplicaConfig) Owner(shard int) int {
	if rc == nil || rc.Replicas <= 1 {
		return 0
	}
	return shard % rc.Replicas
}

// Endpoint returns the configured address of replica id ("" unknown).
func (rc *ReplicaConfig) Endpoint(id int) string {
	if rc == nil || id < 0 || id >= len(rc.Peers) {
		return ""
	}
	return rc.Peers[id]
}

// OwnedShards lists the shard indices this replica owns out of total.
// With fewer shards than replicas the high replicas own nothing — a
// config worth rejecting at deploy time, which Validate cannot see
// (shard count lives in the store) but collectServe warns about.
func (rc *ReplicaConfig) OwnedShards(total int) []int {
	if rc == nil {
		return nil
	}
	var owned []int
	for s := 0; s < total; s++ {
		if rc.Owner(s) == rc.ID {
			owned = append(owned, s)
		}
	}
	return owned
}

// OwnerOfRun returns the replica that owns runID under a layout with
// the given shard count — the client-side placement function: an agent
// that knows the fleet shape can aim its first Open at the owner and
// skip the redirect round trip entirely.
func (rc *ReplicaConfig) OwnerOfRun(runID string, shards int) int {
	return rc.Owner(shardIndex(runID, shards))
}

// ownsRun reports whether this fleet's replica owns runID's shard
// (always true without a replica config).
func (f *Fleet) ownsRun(runID string) (bool, error) {
	rc := f.opts.Replica
	if rc == nil {
		return true, nil
	}
	ss, err := f.repo.resolveShards()
	if err != nil {
		return false, err
	}
	return rc.Owner(ss.shardOf(runID)) == rc.ID, nil
}

// placeRun enforces session placement: nil when this replica owns
// runID, a typed transient redirect to the owner otherwise.
func (f *Fleet) placeRun(runID string) error {
	rc := f.opts.Replica
	if rc == nil {
		return nil
	}
	ss, err := f.repo.resolveShards()
	if err != nil {
		return err
	}
	owner := rc.Owner(ss.shardOf(runID))
	if owner == rc.ID {
		return nil
	}
	if ep := rc.Endpoint(owner); ep != "" {
		return &rpc.RedirectError{Endpoint: ep}
	}
	return fmt.Errorf("fleet: run %q belongs to replica %d (no endpoint configured)", runID, owner)
}

// tokenFor derives a session's durable token, replica-scoped when the
// fleet is replicated. The prefix records provenance; ownership is
// recomputed from the run ID, so survivors can adopt a removed
// replica's sessions without renaming anything.
func (f *Fleet) tokenFor(runID string, createdSeq uint64) string {
	t := sessionToken(runID, createdSeq)
	if rc := f.opts.Replica; rc != nil {
		return fmt.Sprintf("r%d.%s", rc.ID, t)
	}
	return t
}

// PingResponse identifies a collector replica.
type PingResponse struct {
	Replica        int `json:"replica"`  // -1 when not replicated
	Replicas       int `json:"replicas"` // 1 when not replicated
	ActiveSessions int `json:"active_sessions"`
}

func (f *Fleet) handlePing(body []byte) ([]byte, error) {
	resp := PingResponse{Replica: -1, Replicas: 1, ActiveSessions: f.ActiveSessions()}
	if rc := f.opts.Replica; rc != nil {
		resp.Replica, resp.Replicas = rc.ID, rc.Replicas
	}
	return json.Marshal(resp)
}

// PingEndpoint probes the collector behind c and returns its identity.
func PingEndpoint(c rpc.Caller) (PingResponse, error) {
	out, err := c.Call(MethodFleetPing, nil)
	if err != nil {
		return PingResponse{}, err
	}
	var resp PingResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return PingResponse{}, fmt.Errorf("fleet: bad ping response: %w", err)
	}
	return resp, nil
}

// IsUnknownSession reports whether err is the collector telling a
// client that its session handle or token no longer exists — the
// signature of a replica that crashed and lost its in-memory table, or
// of a failover landing on a replica that never had the session. The
// cure is fleet.Resume with the durable token (ResilientClient does
// this automatically); it is NOT a transient transport error, so it is
// deliberately invisible to rpc.IsTransient retry loops.
func IsUnknownSession(err error) bool {
	if err == nil {
		return false
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return strings.Contains(re.Msg, "fleet: unknown session")
	}
	return strings.Contains(err.Error(), "fleet: unknown session")
}
