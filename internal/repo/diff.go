// Cross-run diff: align the phases of two archived runs and report how
// wall time, op mix, and idle/MXU behavior shifted. This is the
// mechanical core of the paper's cross-configuration comparisons
// (TPUv2 vs v3, tuned vs naive input pipelines): the same workload's
// phase structure, diffed instead of eyeballed.
package repo

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/archive"
	"repro/internal/core/cluster"
	"repro/internal/simclock"
)

// MaxOpMixDeltas caps how many per-op share changes a phase match
// reports (largest absolute shifts first).
const MaxOpMixDeltas = 8

// ErrNoSummary is returned when an archive carries no analyzer summary
// to diff.
var ErrNoSummary = errors.New("repo: archive has no summary to diff")

// ErrAlgorithmMismatch is returned when two summaries come from
// different phase algorithms: an OLS phase and a k-means cluster are not
// the same kind of thing, so their phases do not pair.
var ErrAlgorithmMismatch = errors.New("repo: summaries of different phase algorithms")

// OpMixDelta is one operator's time-share change between two matched
// phases. Shares are fractions of the phase's total op time.
type OpMixDelta struct {
	Op     string // "device:name"
	ShareA float64
	ShareB float64
	Delta  float64 // ShareB - ShareA
}

// PhaseMatch pairs a phase of run A with its closest counterpart in
// run B.
type PhaseMatch struct {
	A archive.PhaseSummary
	B archive.PhaseSummary

	// Distance is the Euclidean distance between the two phases'
	// op-share signature vectors — computed with the same metric the
	// clustering kernels use (cluster.SqDist), so "close" here means
	// exactly what it meant to the analyzer. 0 = identical mix.
	Distance float64

	WallDelta simclock.Duration // B.Total - A.Total
	IdleDelta float64
	MXUDelta  float64
	OpMix     []OpMixDelta
}

// Diff is the full cross-run comparison.
type Diff struct {
	A, B RunInfo // filled by Repo.Compare; zero for raw summary diffs

	WorkloadA, WorkloadB string
	TotalA, TotalB       simclock.Duration
	IdleA, IdleB         float64
	MXUA, MXUB           float64

	Matches []PhaseMatch
	OnlyA   []archive.PhaseSummary // unmatched phases of A
	OnlyB   []archive.PhaseSummary
}

// DiffSummaries aligns the phases of two archives' summaries. Matching
// is greedy on global minimum signature distance: of all remaining
// (A-phase, B-phase) pairs, pair the closest, repeat. Phases left over
// when one side runs out are reported as OnlyA/OnlyB — a phase that
// exists in one configuration but not the other is itself a finding.
// Both summaries must come from one algorithm (ErrAlgorithmMismatch).
func DiffSummaries(sa, sb *archive.Summary) (*Diff, error) {
	if sa == nil || sb == nil {
		return nil, ErrNoSummary
	}
	if sa.Algorithm != sb.Algorithm {
		return nil, fmt.Errorf("%w: %q against %q", ErrAlgorithmMismatch, sa.Algorithm, sb.Algorithm)
	}
	d := &Diff{
		WorkloadA: sa.Workload, WorkloadB: sb.Workload,
		TotalA: sa.TotalTime, TotalB: sb.TotalTime,
		IdleA: sa.IdleFrac, IdleB: sb.IdleFrac,
		MXUA: sa.MXUUtil, MXUB: sb.MXUUtil,
	}

	// Joint op vocabulary over both runs' phase summaries, in a fixed
	// (sorted) order so signature vectors are comparable and the diff
	// is deterministic.
	vocab := opVocabulary(sa, sb)
	sigA := make([][]float64, len(sa.Phases))
	for i := range sa.Phases {
		sigA[i] = signature(&sa.Phases[i], vocab)
	}
	sigB := make([][]float64, len(sb.Phases))
	for i := range sb.Phases {
		sigB[i] = signature(&sb.Phases[i], vocab)
	}

	usedA := make([]bool, len(sa.Phases))
	usedB := make([]bool, len(sb.Phases))
	n := len(sa.Phases)
	if len(sb.Phases) < n {
		n = len(sb.Phases)
	}
	for k := 0; k < n; k++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := range sa.Phases {
			if usedA[i] {
				continue
			}
			for j := range sb.Phases {
				if usedB[j] {
					continue
				}
				dist := math.Sqrt(cluster.SqDist(sigA[i], sigB[j]))
				if dist < best {
					best, bi, bj = dist, i, j
				}
			}
		}
		usedA[bi], usedB[bj] = true, true
		d.Matches = append(d.Matches, matchPhases(sa.Phases[bi], sb.Phases[bj], best))
	}
	// Present matches in run-A phase order, not discovery order.
	sort.Slice(d.Matches, func(i, j int) bool {
		if d.Matches[i].A.Start != d.Matches[j].A.Start {
			return d.Matches[i].A.Start < d.Matches[j].A.Start
		}
		return d.Matches[i].A.ID < d.Matches[j].A.ID
	})
	for i, used := range usedA {
		if !used {
			d.OnlyA = append(d.OnlyA, sa.Phases[i])
		}
	}
	for j, used := range usedB {
		if !used {
			d.OnlyB = append(d.OnlyB, sb.Phases[j])
		}
	}
	return d, nil
}

// opVocabulary returns every op key appearing in either summary's
// phase op tables, sorted.
func opVocabulary(sa, sb *archive.Summary) []string {
	set := make(map[string]struct{})
	for _, s := range []*archive.Summary{sa, sb} {
		for i := range s.Phases {
			for _, op := range s.Phases[i].Ops {
				set[opKey(op)] = struct{}{}
			}
		}
	}
	vocab := make([]string, 0, len(set))
	for k := range set {
		vocab = append(vocab, k)
	}
	sort.Strings(vocab)
	return vocab
}

func opKey(op archive.OpSummary) string {
	return op.Device.String() + ":" + op.Name
}

// signature builds a phase's op time-share vector over the joint
// vocabulary: element i is the fraction of the phase's summarized op
// time spent in vocab[i].
func signature(p *archive.PhaseSummary, vocab []string) []float64 {
	idx := make(map[string]int, len(vocab))
	for i, k := range vocab {
		idx[k] = i
	}
	v := make([]float64, len(vocab))
	var total float64
	for _, op := range p.Ops {
		total += float64(op.Total)
	}
	if total == 0 {
		return v
	}
	for _, op := range p.Ops {
		v[idx[opKey(op)]] += float64(op.Total) / total
	}
	return v
}

func matchPhases(a, b archive.PhaseSummary, dist float64) PhaseMatch {
	m := PhaseMatch{
		A: a, B: b,
		Distance:  dist,
		WallDelta: b.Total - a.Total,
		IdleDelta: b.IdleFrac - a.IdleFrac,
		MXUDelta:  b.MXUUtil - a.MXUUtil,
	}
	shares := func(p archive.PhaseSummary) map[string]float64 {
		var total float64
		for _, op := range p.Ops {
			total += float64(op.Total)
		}
		out := make(map[string]float64, len(p.Ops))
		if total == 0 {
			return out
		}
		for _, op := range p.Ops {
			out[opKey(op)] += float64(op.Total) / total
		}
		return out
	}
	sa, sb := shares(a), shares(b)
	keys := make(map[string]struct{}, len(sa)+len(sb))
	for k := range sa {
		keys[k] = struct{}{}
	}
	for k := range sb {
		keys[k] = struct{}{}
	}
	for k := range keys {
		m.OpMix = append(m.OpMix, OpMixDelta{
			Op: k, ShareA: sa[k], ShareB: sb[k], Delta: sb[k] - sa[k],
		})
	}
	sort.Slice(m.OpMix, func(i, j int) bool {
		di, dj := math.Abs(m.OpMix[i].Delta), math.Abs(m.OpMix[j].Delta)
		if di != dj {
			return di > dj
		}
		return m.OpMix[i].Op < m.OpMix[j].Op
	})
	if len(m.OpMix) > MaxOpMixDeltas {
		m.OpMix = m.OpMix[:MaxOpMixDeltas]
	}
	return m
}
