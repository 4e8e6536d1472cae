package analyzer

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/estimator"
	"repro/internal/tpu"
)

// phaseDigest hashes phase membership: the member step numbers of every
// phase, in phase order.
func phaseDigest(phases []*Phase) string {
	h := sha256.New()
	for _, p := range phases {
		fmt.Fprintf(h, "%v;", p.StepIDs())
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPhaseDigestsPinned pins k-means and DBSCAN phase membership on
// three workloads and both TPU generations (300 steps, seed 1). The
// values were re-captured once, on purpose, when PCA became a direct
// eigendecomposition with orthonormal components in place of power
// iteration with deflation: that moved six digests (bert-mrpc k-means,
// dcgan-mnist k-means and DBSCAN, on both generations). resnet-imagenet
// has exactly 100 feature columns, so PCA returns its input and its four
// digests date from before the clustering front-end was shared and the
// DBSCAN sweep reused its neighbor lists. Seeded k-means++ flips on
// last-bit distance changes: any change to feature, PCA or distance
// numerics shows up as an edit to this table, not as a silent change to
// the paper's tables.
func TestPhaseDigestsPinned(t *testing.T) {
	pinned := []struct {
		workload       string
		version        tpu.Version
		kmeans, dbscan string
	}{
		{"bert-mrpc", tpu.V2, "707089f05c8457c1", "6d3f034a42510561"},
		{"bert-mrpc", tpu.V3, "e868db5c5ba5a5b3", "6d3f034a42510561"},
		{"resnet-imagenet", tpu.V2, "aaf156d2bc7a8eb2", "9f4c7913c4a8882c"},
		{"resnet-imagenet", tpu.V3, "aaf156d2bc7a8eb2", "9f4c7913c4a8882c"},
		{"dcgan-mnist", tpu.V2, "953aa242215b9b9c", "54930d782dd84daa"},
		{"dcgan-mnist", tpu.V3, "953aa242215b9b9c", "2de59f51fa70ceae"},
	}
	for _, pin := range pinned {
		_, steps := runWorkloadWith(t, pin.workload,
			estimator.Options{Version: pin.version, Steps: 300, Seed: 1})
		for _, c := range []struct {
			algo Algorithm
			want string
		}{{KMeansAlgo, pin.kmeans}, {DBSCANAlgo, pin.dbscan}} {
			rep, err := AnalyzeSteps(pin.workload, steps, c.algo, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := phaseDigest(rep.Phases); got != c.want {
				t.Errorf("%s %s %s: phase digest %s, pinned %s", pin.workload, pin.version, c.algo, got, c.want)
			}
		}
	}
}
