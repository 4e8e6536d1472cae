package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/protowire"
	"repro/internal/simclock"
)

// Wire schema for ProfileRecord (protobuf field numbers):
//
//	message ProfileRecord {
//	  uint64 seq          = 1;
//	  uint64 window_start = 2;
//	  uint64 window_end   = 3;
//	  uint64 num_events   = 4;
//	  bool   truncated    = 5;
//	  double idle_frac    = 6;
//	  double mxu_util     = 7;
//	  repeated StepStat steps = 8;
//	  bool   gap          = 9;
//	  sint64 open_step    = 10;
//	}
//
//	message StepStat {
//	  sint64 step      = 1;
//	  uint64 start     = 2;
//	  uint64 end       = 3;
//	  double idle_frac = 4;
//	  double mxu_util  = 5;
//	  repeated OpEntry ops = 6;
//	}
//
//	message OpEntry {
//	  string name   = 1;
//	  uint64 device = 2;
//	  uint64 count  = 3;
//	  uint64 total  = 4;
//	}

// encState is the pooled scratch an encode borrows: one buffer per
// message-nesting level (record fields go straight to the caller's dst;
// steps and ops are staged here so their length prefixes can be written
// first). Pooling it makes MarshalRecordAppend allocation-free at steady
// state — the profiler's recording loop and the archive writer marshal
// every record through here, so per-record garbage would be paid once per
// profile window for the lifetime of a run.
type encState struct {
	step []byte
	op   []byte
}

var encPool = sync.Pool{New: func() any { return new(encState) }}

// MarshalRecord encodes a ProfileRecord to protobuf wire format.
// It is MarshalRecordAppend into a fresh buffer; the two produce
// identical bytes by construction.
func MarshalRecord(r *ProfileRecord) []byte {
	return MarshalRecordAppend(nil, r)
}

// MarshalRecordAppend appends r's wire encoding to dst and returns the
// extended slice. Scratch state is pooled, so a caller that reuses dst
// (dst[:0]) encodes with zero steady-state allocations. Safe for
// concurrent use.
func MarshalRecordAppend(dst []byte, r *ProfileRecord) []byte {
	st := encPool.Get().(*encState)
	dst = protowire.AppendUint64(dst, 1, uint64(r.Seq))
	dst = protowire.AppendUint64(dst, 2, uint64(r.WindowStart))
	dst = protowire.AppendUint64(dst, 3, uint64(r.WindowEnd))
	dst = protowire.AppendUint64(dst, 4, uint64(r.NumEvents))
	dst = protowire.AppendBool(dst, 5, r.Truncated)
	dst = protowire.AppendDouble(dst, 6, r.IdleFrac)
	dst = protowire.AppendDouble(dst, 7, r.MXUUtil)
	for _, s := range r.Steps {
		st.step = appendStep(st.step[:0], s, st)
		dst = protowire.AppendBytes(dst, 8, st.step)
	}
	// Encoded only when set so pre-gap record bytes are unchanged.
	if r.Gap {
		dst = protowire.AppendBool(dst, 9, true)
	}
	if r.OpenStep != 0 {
		dst = protowire.AppendInt64(dst, 10, r.OpenStep)
	}
	encPool.Put(st)
	return dst
}

func appendStep(dst []byte, s *StepStat, st *encState) []byte {
	dst = protowire.AppendInt64(dst, 1, s.Step)
	dst = protowire.AppendUint64(dst, 2, uint64(s.Start))
	dst = protowire.AppendUint64(dst, 3, uint64(s.End))
	dst = protowire.AppendDouble(dst, 4, s.IdleFrac)
	dst = protowire.AppendDouble(dst, 5, s.MXUUtil)
	// The list's order is the wire's: reproducible bytes need no sort.
	for i := range s.Ops {
		e := &s.Ops[i]
		st.op = st.op[:0]
		st.op = protowire.AppendString(st.op, 1, e.Name)
		st.op = protowire.AppendUint64(st.op, 2, uint64(e.Device))
		st.op = protowire.AppendUint64(st.op, 3, uint64(e.Count))
		st.op = protowire.AppendUint64(st.op, 4, uint64(e.Total))
		dst = protowire.AppendBytes(dst, 6, st.op)
	}
	return dst
}

// namePool holds the tables through which decoded op entries share one
// string per distinct operator name: a run has tens of distinct names and
// tens of thousands of op entries, so without sharing the names are most
// of a decode's allocations. A decode borrows a table for its duration —
// nothing is shared between goroutines — and every record decoded with
// it afterwards shares its strings.
var namePool = sync.Pool{New: func() any { return make(map[string]string) }}

// Bounds on a name table, so that records from a hostile encoder cannot
// grow it: names past either bound are allocated per entry, and a table
// that filled up is emptied when its decode ends rather than pooled full
// of names no later record will carry.
const (
	maxSharedNames   = 1024
	maxSharedNameLen = 128
)

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

// maxPresize caps the capacity a decode reserves on the strength of a
// count: real windows hold tens of steps and real steps tens of
// operators, and a hostile message is mostly tags.
const maxPresize = 4096

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

// UnmarshalRecord decodes a ProfileRecord from protobuf wire format.
func UnmarshalRecord(data []byte) (*ProfileRecord, error) {
	names := namePool.Get().(map[string]string)
	r, err := unmarshalRecord(data, names)
	if len(names) >= maxSharedNames {
		clear(names)
	}
	namePool.Put(names)
	return r, err
}

func unmarshalRecord(data []byte, names map[string]string) (*ProfileRecord, error) {
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
			s, err := unmarshalStep(raw, names)
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

func unmarshalStep(data []byte, names map[string]string) (*StepStat, error) {
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
			e, err := unmarshalOp(raw, names)
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

// foldOps turns op entries in any order, operators repeated, into the
// list form: sorted, each operator's entries summed into one. Our encoder
// writes a step's entries in list order, one per operator, so this runs
// only on another encoder's output — which must decode as it did when the
// entries were folded into a map.
func foldOps(ops []OpTotal) []OpTotal {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key().Compare(ops[j].Key()) < 0 })
	out := ops[:1]
	for _, e := range ops[1:] {
		if last := &out[len(out)-1]; last.Key() == e.Key() {
			last.Count += e.Count
			last.Total += e.Total
		} else {
			out = append(out, e)
		}
	}
	return out
}

// unmarshalOp decodes one op entry.
func unmarshalOp(data []byte, names map[string]string) (OpTotal, error) {
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
