package trace

// The straightforward fresh-buffers-everywhere record encoder the package
// shipped before MarshalRecordAppend pooled its scratch, kept as the
// byte-identity oracle for MarshalRecord: the pooled encoder may change
// how it stages bytes, never which bytes it emits.

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/protowire"
	"repro/internal/simclock"
)

// naiveMarshalRecord encodes r with per-call buffers: a fresh
// destination, a fresh staging buffer per step and per op, and a fresh
// sorted-key slice per step.
func naiveMarshalRecord(r *ProfileRecord) []byte {
	var dst []byte
	dst = protowire.AppendUint64(dst, 1, uint64(r.Seq))
	dst = protowire.AppendUint64(dst, 2, uint64(r.WindowStart))
	dst = protowire.AppendUint64(dst, 3, uint64(r.WindowEnd))
	dst = protowire.AppendUint64(dst, 4, uint64(r.NumEvents))
	dst = protowire.AppendBool(dst, 5, r.Truncated)
	dst = protowire.AppendDouble(dst, 6, r.IdleFrac)
	dst = protowire.AppendDouble(dst, 7, r.MXUUtil)
	for _, s := range r.Steps {
		dst = protowire.AppendBytes(dst, 8, naiveMarshalStep(s))
	}
	if r.Gap {
		dst = protowire.AppendBool(dst, 9, true)
	}
	if r.OpenStep != 0 {
		dst = protowire.AppendInt64(dst, 10, r.OpenStep)
	}
	return dst
}

func naiveMarshalStep(s *StepStat) []byte {
	var dst []byte
	dst = protowire.AppendInt64(dst, 1, s.Step)
	dst = protowire.AppendUint64(dst, 2, uint64(s.Start))
	dst = protowire.AppendUint64(dst, 3, uint64(s.End))
	dst = protowire.AppendDouble(dst, 4, s.IdleFrac)
	dst = protowire.AppendDouble(dst, 5, s.MXUUtil)
	keys := make([]OpKey, 0, len(s.Ops))
	for i := range s.Ops {
		keys = append(keys, s.Ops[i].Key())
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Device != keys[j].Device {
			return keys[i].Device < keys[j].Device
		}
		return keys[i].Name < keys[j].Name
	})
	for _, k := range keys {
		st, _ := s.Op(k)
		var op []byte
		op = protowire.AppendString(op, 1, k.Name)
		op = protowire.AppendUint64(op, 2, uint64(k.Device))
		op = protowire.AppendUint64(op, 3, uint64(st.Count))
		op = protowire.AppendUint64(op, 4, uint64(st.Total))
		dst = protowire.AppendBytes(dst, 6, op)
	}
	return dst
}

// TestNaiveMarshalRecordIdentity: the oracle and the pooled production
// encoder emit identical bytes, on the encoder's edge shapes and on a
// two-regime (infeed-bound, then compute-bound) record stream.
func TestNaiveMarshalRecordIdentity(t *testing.T) {
	recs := appendTestRecords()
	var ts simclock.Time
	for i := 0; i < 500; i++ {
		compute, infeed := simclock.Duration(300+40*(i%7)), simclock.Duration(600-30*(i%5))
		if i >= 250 {
			compute, infeed = 700+simclock.Duration(20*(i%3)), 100
		}
		recs = append(recs, Reduce(int64(i), ts, []Event{
			ev("InfeedDequeueTuple", Host, ts, infeed, int64(i)),
			ev("fusion", TPU, ts.Add(infeed), compute, int64(i)),
			ev("Conv2D", TPU, ts.Add(infeed+compute), 150, int64(i)),
		}, 0.2, 0.5))
		ts = ts.Add(1000)
	}
	for i, rec := range recs {
		if !bytes.Equal(naiveMarshalRecord(rec), MarshalRecord(rec)) {
			t.Fatalf("naive encoder diverges from MarshalRecord at record %d (seq %d)", i, rec.Seq)
		}
	}
}
