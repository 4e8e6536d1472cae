package host

import (
	"errors"
	"math"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	mutate := func(f func(*Spec)) Spec {
		s := DefaultSpec()
		f(&s)
		return s
	}
	cases := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"default", DefaultSpec(), false},
		{"zero-cores", mutate(func(s *Spec) { s.Cores = 0 }), true},
		{"negative-cores", mutate(func(s *Spec) { s.Cores = -4 }), true},
		{"zero-read", mutate(func(s *Spec) { s.ReadMBps = 0 }), true},
		{"negative-read", mutate(func(s *Spec) { s.ReadMBps = -1 }), true},
		{"zero-decode", mutate(func(s *Spec) { s.DecodeMBpsPerThread = 0 }), true},
		{"zero-mem", mutate(func(s *Spec) { s.MemGBps = 0 }), true},
		{"zero-pcie", mutate(func(s *Spec) { s.PCIeGBps = 0 }), true},
		{"nan-pcie", mutate(func(s *Spec) { s.PCIeGBps = math.NaN() }), true},
		{"negative-record-overhead", mutate(func(s *Spec) { s.PerRecordOverheadUs = -1 }), true},
		{"negative-lock", mutate(func(s *Spec) { s.TransferLockUs = -1 }), true},
		{"negative-epoch-restart", mutate(func(s *Spec) { s.EpochRestartUs = -1 }), true},
		{"zero-overheads-ok", mutate(func(s *Spec) {
			s.PerRecordOverheadUs, s.TransferLockUs, s.EpochRestartUs = 0, 0, 0
		}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.validate()
			if tc.wantErr {
				if !errors.Is(err, ErrBadSpec) {
					t.Fatalf("validate() = %v, want ErrBadSpec", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("validate() unexpected error: %v", err)
			}
		})
	}
}

// New must refuse a nonsense host spec rather than simulating with it.
func TestNewRejectsBadSpec(t *testing.T) {
	bad := DefaultSpec()
	bad.PCIeGBps = 0
	in := InputSpec{Name: "x", BatchSize: 8, RecordBytes: 100, DecodedBytes: 200, Records: 1000}
	if _, err := New(bad, DefaultParams(), in, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("New with zero PCIe bandwidth: err = %v, want ErrBadSpec", err)
	}
}
