package tpu

import (
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/xla"
)

// LockstepRun is lockstepRun for the tests in package tpu_test, which can
// build the Table I programs.
var LockstepRun = lockstepRun

// CheckTrainMatchesOracle is checkTrainMatchesOracle for package tpu_test.
var CheckTrainMatchesOracle = checkTrainMatchesOracle

// PriceTable loads p on d and returns the table d priced it into: each
// timed event's jitter-free duration, the MXU occupancy of one execution
// and the layout of a run's events.
func PriceTable(d *Device, p *xla.Program) ([]simclock.Duration, simclock.Duration, *trace.RunLayout, error) {
	if err := d.LoadProgram(p); err != nil {
		return nil, 0, nil, err
	}
	return d.priced.base, d.priced.mxu, &d.priced.layout, nil
}

// InstructionTime is the roofline duration of one instruction on d.
func InstructionTime(d *Device, inst *xla.Instruction) simclock.Duration {
	return d.instructionTime(inst)
}

// MXUOccupancy is the MXU-busy part of one instruction on d.
func MXUOccupancy(d *Device, inst *xla.Instruction) simclock.Duration {
	return d.mxuOccupancy(inst)
}

// FeedTime is the jitter-free duration of a feed of the given size on d,
// as RunStep timed it before programs were priced.
func FeedTime(d *Device, bytes int64) simclock.Duration {
	return simclock.Duration(float64(bytes)/d.Spec.hbmBytesPerMicro()+0.5) + d.Spec.IssueOverhead
}
