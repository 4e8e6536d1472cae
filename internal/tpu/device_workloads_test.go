package tpu_test

import (
	"testing"

	"repro/internal/tpu"
	"repro/internal/workloads"
	"repro/internal/xla"
)

// TestDeviceStreamMatchesOracleOnTableI runs every Table I workload's
// train and eval programs through the device and the old-stream oracle in
// lockstep, on both generations.
func TestDeviceStreamMatchesOracleOnTableI(t *testing.T) {
	for _, name := range workloads.Names() {
		w := workloads.MustGet(name)
		train, eval, err := w.Programs()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			t.Run(name+"/"+v.String(), func(t *testing.T) {
				tpu.LockstepRun(t, tpu.NewChipSpec(v), w.Seed, []*xla.Program{train, eval}, 30)
			})
		}
	}
}
