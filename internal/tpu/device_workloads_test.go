package tpu_test

import (
	"testing"

	"repro/internal/simclock"
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

// TestPriceTableMatchesInstructions: for every Table I workload's train
// and eval program on both generations, the device prices each timed
// event at its instruction's roofline time (its feed's, for the infeed
// and outfeed), sums each MXU instruction's occupancy, names a run's
// events in order, and StepBusyTime reads the same table. Loading a
// program again, as every eval block does, reuses its table.
func TestPriceTableMatchesInstructions(t *testing.T) {
	for _, name := range workloads.Names() {
		train, eval, err := workloads.MustGet(name).Programs()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			d := tpu.NewDevice(tpu.NewChipSpec(v), 1)
			for _, p := range []*xla.Program{train, eval} {
				base, mxu, layout, err := tpu.PriceTable(d, p)
				if err != nil {
					t.Fatal(err)
				}
				var want []simclock.Duration
				var names []string
				if p.InfeedBytes > 0 {
					want = append(want, tpu.FeedTime(d, p.InfeedBytes))
					names = append(names, "InfeedDequeueTuple", "Infeed")
				}
				var wantMXU, busy simclock.Duration
				for _, inst := range p.Instructions {
					want = append(want, tpu.InstructionTime(d, inst))
					wantMXU += tpu.MXUOccupancy(d, inst)
					names = append(names, inst.Op)
				}
				if p.OutfeedBytes > 0 {
					want = append(want, tpu.FeedTime(d, p.OutfeedBytes))
					names = append(names, "Outfeed")
				}
				for _, b := range want {
					busy += b
				}
				where := name + "/" + v.String() + "/" + p.Name
				if len(base) != len(want) {
					t.Fatalf("%s: %d table entries, %d timed events", where, len(base), len(want))
				}
				for i := range want {
					if base[i] != want[i] {
						t.Fatalf("%s: entry %d is %d, the event's own time %d", where, i, base[i], want[i])
					}
				}
				if mxu != wantMXU {
					t.Fatalf("%s: MXU occupancy %d, the instructions sum to %d", where, mxu, wantMXU)
				}
				if len(layout.Names) != len(names) || layout.Paired != (p.InfeedBytes > 0) || len(names) != tpu.StepEvents(p) {
					t.Fatalf("%s: layout of %d names (paired %v), want %d", where, len(layout.Names), layout.Paired, len(names))
				}
				for i := range names {
					if layout.Names[i] != names[i] {
						t.Fatalf("%s: event %d named %q, want %q", where, i, layout.Names[i], names[i])
					}
				}
				if got := d.StepBusyTime(); got != busy {
					t.Fatalf("%s: StepBusyTime %d, the events' own times sum to %d", where, got, busy)
				}
				again, _, _, err := tpu.PriceTable(d, p)
				if err != nil {
					t.Fatal(err)
				}
				if &again[0] != &base[0] {
					t.Fatalf("%s: reloading the program priced it again", where)
				}
			}
		}
	}
}

// BenchmarkTrain times the device side of a 300-step training run on
// three Table I workloads: blocks of 100 train steps, each followed by an
// eval block of 3, so the eval program is loaded and the train program
// reloaded as an estimator run does. Its set-up fails unless every step's
// events and durations equal the oracle's, which times each instruction
// on its own as it is emitted. ns/step is per step run.
func BenchmarkTrain(b *testing.B) {
	const steps, block = 300, 100
	for _, name := range []string{"bert-mrpc", "resnet-imagenet", "dcgan-mnist"} {
		b.Run(name, func(b *testing.B) {
			w := workloads.MustGet(name)
			train, eval, err := w.Programs()
			if err != nil {
				b.Fatal(err)
			}
			spec := tpu.NewChipSpec(tpu.V2)
			tpu.CheckTrainMatchesOracle(b, spec, w.Seed, [2]*xla.Program{train, eval}, steps, block)
			b.ResetTimer()
			ran := 0
			for i := 0; i < b.N; i++ {
				d := tpu.NewDevice(spec, w.Seed)
				for done := 0; done < steps; done += block {
					for _, blk := range []struct {
						p *xla.Program
						n int
					}{{train, block}, {eval, 3}} {
						if err := d.LoadProgram(blk.p); err != nil {
							b.Fatal(err)
						}
						for s := 0; s < blk.n; s++ {
							if _, err := d.RunStep(int64(ran), 0); err != nil {
								b.Fatal(err)
							}
							ran++
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ran), "ns/step")
		})
	}
}
