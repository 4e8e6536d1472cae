// Package tpu models the Cloud TPU device: chip specifications for TPUv2
// and TPUv3, a timing engine that executes compiled XLA programs step by
// step, idle-time and MXU-utilization accounting, and the profile service
// that TPUPoint-Profiler queries over RPC.
//
// The model is a calibrated discrete-timing simulator. Each instruction's
// duration is the roofline max of its compute time (FLOPs over effective
// matrix throughput) and its memory time (HBM bytes over bandwidth), plus a
// fixed issue overhead. The paper's architectural observations all emerge
// from the two published differences between the generations: TPUv3 has
// twice the MXUs (so compute halves) and twice the HBM, while the host and
// its input pipeline stay the same.
package tpu

import (
	"errors"
	"fmt"

	"repro/internal/simclock"
)

// Version selects a Cloud TPU generation.
type Version int

// Available generations. The first generation is inference-only and not
// offered on Cloud, so the toolchain targets v2 and v3 like the paper.
const (
	V2 Version = 2
	V3 Version = 3
)

func (v Version) String() string {
	switch v {
	case V2:
		return "TPUv2"
	case V3:
		return "TPUv3"
	default:
		return fmt.Sprintf("TPUv%d", int(v))
	}
}

// ChipSpec describes one TPU chip as visible to the runtime.
type ChipSpec struct {
	Version Version
	Name    string

	// MXUs is the number of matrix units on the chip. Each TPUv2 chip
	// carries two MXUs; TPUv3 packs four in the same power envelope.
	MXUs int

	// HBMBytes is high-bandwidth memory capacity. 8 GiB per MXU on v2
	// (16 GiB/chip), 32 GiB/chip on v3.
	HBMBytes int64

	// PeakTFLOPS is the advertised peak: 45 for v2, 90 for v3.
	PeakTFLOPS float64

	// MXUEfficiency derates peak throughput for real kernels (tiling,
	// pipeline bubbles). Applied uniformly; per-op variation comes from
	// the roofline with memory time.
	MXUEfficiency float64

	// HBMGBps is memory bandwidth in GB/s: 700 for v2, 900 for v3.
	HBMGBps float64

	// InfeedGBps is host→TPU transfer bandwidth (PCIe-class, unchanged
	// between generations — which is the root of Observation 5).
	InfeedGBps float64

	// IssueOverhead is the fixed per-instruction launch cost.
	IssueOverhead simclock.Duration
}

// NewChipSpec returns the spec for a generation.
func NewChipSpec(v Version) ChipSpec {
	switch v {
	case V3:
		// Efficiency note: TPUv3 doubles the MXUs, but a model tuned for
		// v2's tile sizes cannot fill them — the paper measures FLOP
		// utilization *dropping* on v3 (e.g. QANet 16%→13%) while per-
		// step time barely improves. A lower efficiency derate on the
		// doubled peak captures exactly that: ~9% higher effective
		// throughput, not 2×.
		return ChipSpec{
			Version:       V3,
			Name:          "TPUv3",
			MXUs:          4,
			HBMBytes:      32 << 30,
			PeakTFLOPS:    90,
			MXUEfficiency: 0.23,
			HBMGBps:       900,
			InfeedGBps:    10,
			IssueOverhead: 2 * simclock.Microsecond,
		}
	default:
		return ChipSpec{
			Version:       V2,
			Name:          "TPUv2",
			MXUs:          2,
			HBMBytes:      16 << 30,
			PeakTFLOPS:    45,
			MXUEfficiency: 0.42,
			HBMGBps:       700,
			InfeedGBps:    10,
			IssueOverhead: 2 * simclock.Microsecond,
		}
	}
}

// ErrBadSpec rejects chip specs that cannot describe hardware: non-positive
// unit counts, memory sizes, clock-rate-derived throughputs, or bandwidths.
// Before validation a zero-bandwidth spec divided through the roofline into
// Inf/NaN instruction times and the simulation silently produced nonsense.
var ErrBadSpec = errors.New("tpu: invalid chip spec")

// Validate rejects non-physical chip specs with a typed error.
func (c ChipSpec) Validate() error {
	if c.MXUs < 1 {
		return fmt.Errorf("%w: MXUs = %d, must be >= 1", ErrBadSpec, c.MXUs)
	}
	if c.HBMBytes < 1 {
		return fmt.Errorf("%w: HBMBytes = %d, must be >= 1", ErrBadSpec, c.HBMBytes)
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"PeakTFLOPS", c.PeakTFLOPS},
		{"MXUEfficiency", c.MXUEfficiency},
		{"HBMGBps", c.HBMGBps},
		{"InfeedGBps", c.InfeedGBps},
	}
	for _, r := range rates {
		if !(r.v > 0) { // rejects zero, negatives, and NaN
			return fmt.Errorf("%w: %s = %g, must be > 0", ErrBadSpec, r.name, r.v)
		}
	}
	if c.MXUEfficiency > 1 {
		return fmt.Errorf("%w: MXUEfficiency = %g, must be <= 1", ErrBadSpec, c.MXUEfficiency)
	}
	if c.IssueOverhead < 0 {
		return fmt.Errorf("%w: IssueOverhead = %d, must be >= 0", ErrBadSpec, c.IssueOverhead)
	}
	return nil
}

// flopsPerMicro returns effective matrix throughput in FLOP/µs.
func (c ChipSpec) flopsPerMicro() float64 {
	return c.PeakTFLOPS * c.MXUEfficiency * 1e6
}

// peakFlopsPerMicro returns the un-derated peak in FLOP/µs, the denominator
// for MXU/FLOP utilization metrics.
func (c ChipSpec) peakFlopsPerMicro() float64 {
	return c.PeakTFLOPS * 1e6
}

// hbmBytesPerMicro returns HBM bandwidth in bytes/µs.
func (c ChipSpec) hbmBytesPerMicro() float64 {
	return c.HBMGBps * 1e3
}
