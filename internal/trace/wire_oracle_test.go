package trace

// The straightforward fresh-buffers-everywhere record encoder the package
// shipped before MarshalRecordAppend pooled its scratch, kept as the
// byte-identity oracle for MarshalRecord: the pooled encoder may change
// how it stages bytes, never which bytes it emits. Below it, the decoder
// the package shipped before a record decoded into two slabs — a Decoder
// per message, a list presized per step from a count of its entries —
// kept as the oracle for UnmarshalRecord: the slab decoder must accept
// exactly the bytes this one accepts, and return the same record.

import (
	"bytes"
	"fmt"
	"reflect"
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

// sharedName returns b as a string, the one every earlier entry of that
// name got from this table where the bounds allow.
func sharedName(names map[string]string, b []byte) string {
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxSharedNameLen && len(names) < maxSharedNames {
		names[s] = s
	}
	return s
}

// countField returns how many times field occurs at the top level of the
// message in data (at most maxPresize, and only up to the first malformed
// tag): the capacity to give a list when its first element is decoded,
// so that the well-formed case appends without growing.
func countField(data []byte, field int) int {
	n := 0
	d := protowire.NewDecoder(data)
	for !d.Done() && n < maxPresize {
		f, ty, err := d.Next()
		if err != nil || d.Skip(ty) != nil {
			break
		}
		if f == field {
			n++
		}
	}
	return n
}

func unmarshalRecordOracle(data []byte, names map[string]string) (*ProfileRecord, error) {
	r := &ProfileRecord{}
	d := protowire.NewDecoder(data)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.Seq = int64(v)
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.WindowStart = simclock.Time(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.WindowEnd = simclock.Time(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.NumEvents = int64(v)
		case 5:
			v, err := d.Bool()
			if err != nil {
				return nil, err
			}
			r.Truncated = v
		case 6:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			r.IdleFrac = v
		case 7:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			r.MXUUtil = v
		case 8:
			raw, err := d.Raw()
			if err != nil {
				return nil, err
			}
			s, err := unmarshalStepOracle(raw, names)
			if err != nil {
				return nil, err
			}
			if r.Steps == nil {
				r.Steps = make([]*StepStat, 0, countField(data, 8))
			}
			r.Steps = append(r.Steps, s)
		case 9:
			v, err := d.Bool()
			if err != nil {
				return nil, err
			}
			r.Gap = v
		case 10:
			v, err := d.Int64()
			if err != nil {
				return nil, err
			}
			r.OpenStep = v
		default:
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func unmarshalStepOracle(data []byte, names map[string]string) (*StepStat, error) {
	s := &StepStat{}
	inOrder := true
	d := protowire.NewDecoder(data)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			v, err := d.Int64()
			if err != nil {
				return nil, err
			}
			s.Step = v
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			s.Start = simclock.Time(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			s.End = simclock.Time(v)
		case 4:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			s.IdleFrac = v
		case 5:
			v, err := d.Double()
			if err != nil {
				return nil, err
			}
			s.MXUUtil = v
		case 6:
			raw, err := d.Raw()
			if err != nil {
				return nil, err
			}
			e, err := unmarshalOpOracle(raw, names)
			if err != nil {
				return nil, err
			}
			if s.Ops == nil {
				s.Ops = make([]OpTotal, 0, countField(data, 6))
			} else if s.Ops[len(s.Ops)-1].Key().Compare(e.Key()) >= 0 {
				inOrder = false
			}
			s.Ops = append(s.Ops, e)
		default:
			if err := d.Skip(ty); err != nil {
				return nil, err
			}
		}
	}
	if !inOrder {
		s.Ops = foldOps(s.Ops)
	}
	return s, nil
}

// unmarshalOpOracle decodes one op entry.
func unmarshalOpOracle(data []byte, names map[string]string) (OpTotal, error) {
	var name []byte
	var e OpTotal
	d := protowire.NewDecoder(data)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return e, err
		}
		switch f {
		case 1:
			if name, err = d.Raw(); err != nil {
				return e, err
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return e, err
			}
			if v > uint64(TPU) {
				return e, fmt.Errorf("trace: bad device %d", v)
			}
			e.Device = Device(v)
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return e, err
			}
			e.Count = int64(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return e, err
			}
			e.Total = simclock.Duration(v)
		default:
			if err := d.Skip(ty); err != nil {
				return e, err
			}
		}
	}
	if len(name) == 0 {
		return e, fmt.Errorf("trace: op entry without name")
	}
	e.Name = sharedName(names, name)
	return e, nil
}

// checkDecodeMatchesOracle decodes data with UnmarshalRecord and with the
// oracle, and fails tb unless both reject it or both return the same
// record: the same bytes re-marshaled (every field, doubles bit for bit,
// so a NaN compares equal), Steps nil for both or neither, and each
// step's Ops equal as values, nil against nil.
func checkDecodeMatchesOracle(tb testing.TB, where string, data []byte) {
	tb.Helper()
	got, err := UnmarshalRecord(data)
	want, wantErr := unmarshalRecordOracle(data, make(map[string]string))
	if (err == nil) != (wantErr == nil) {
		tb.Fatalf("%s: UnmarshalRecord error %v, oracle error %v", where, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(MarshalRecord(got), MarshalRecord(want)) || len(got.Steps) != len(want.Steps) ||
		(got.Steps == nil) != (want.Steps == nil) {
		tb.Fatalf("%s: decoded\n %+v\noracle\n %+v", where, got, want)
	}
	for i, s := range got.Steps {
		if !reflect.DeepEqual(s.Ops, want.Steps[i].Ops) {
			tb.Fatalf("%s: step %d's ops\n %+v\noracle\n %+v", where, i, s.Ops, want.Steps[i].Ops)
		}
	}
}
