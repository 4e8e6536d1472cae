package trace

import (
	"fmt"
	"math"
	"slices"
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

// encState is the pooled scratch an encode borrows: the encoded length of
// each of the record's steps. An encode sizes the record first, grows the
// destination once to hold it, and then writes every message in place, its
// length prefix known before its bytes. Pooling the lengths makes
// MarshalRecordAppend allocation-free at steady state — the profiler's
// recording loop and the archive writer marshal every record through
// here, so per-record garbage would be paid once per profile window for
// the lifetime of a run.
type encState struct {
	steps []int
}

var encPool = sync.Pool{New: func() any { return new(encState) }}

// MarshalRecord encodes a ProfileRecord to protobuf wire format.
// It is MarshalRecordAppend into a fresh buffer; the two produce
// identical bytes by construction.
func MarshalRecord(r *ProfileRecord) []byte {
	return MarshalRecordAppend(nil, r)
}

// MarshalRecordAppend appends r's wire encoding to dst and returns the
// extended slice, growing dst at most once. Scratch state is pooled, so a
// caller that reuses dst (dst[:0]) encodes with zero steady-state
// allocations. Safe for concurrent use.
func MarshalRecordAppend(dst []byte, r *ProfileRecord) []byte {
	st := encPool.Get().(*encState)
	dst = st.appendRecord(dst, r, st.size(r))
	encPool.Put(st)
	return dst
}

// size returns r's encoded length and leaves its steps' lengths in
// st.steps.
func (st *encState) size(r *ProfileRecord) int {
	n := protowire.SizeUint64(1, uint64(r.Seq)) +
		protowire.SizeUint64(2, uint64(r.WindowStart)) +
		protowire.SizeUint64(3, uint64(r.WindowEnd)) +
		protowire.SizeUint64(4, uint64(r.NumEvents)) +
		protowire.SizeUint64(5, 0) +
		protowire.SizeDouble(6) + protowire.SizeDouble(7)
	st.steps = st.steps[:0]
	for _, s := range r.Steps {
		sn := stepSize(s)
		st.steps = append(st.steps, sn)
		n += protowire.SizeBytes(8, sn)
	}
	if r.Gap {
		n += protowire.SizeUint64(9, 1)
	}
	if r.OpenStep != 0 {
		n += protowire.SizeInt64(10, r.OpenStep)
	}
	return n
}

// appendRecord appends r, whose encoded length is n and whose steps'
// lengths size left in st.steps, to dst.
func (st *encState) appendRecord(dst []byte, r *ProfileRecord, n int) []byte {
	dst = slices.Grow(dst, n)
	dst = protowire.AppendUint64(dst, 1, uint64(r.Seq))
	dst = protowire.AppendUint64(dst, 2, uint64(r.WindowStart))
	dst = protowire.AppendUint64(dst, 3, uint64(r.WindowEnd))
	dst = protowire.AppendUint64(dst, 4, uint64(r.NumEvents))
	dst = protowire.AppendBool(dst, 5, r.Truncated)
	dst = protowire.AppendDouble(dst, 6, r.IdleFrac)
	dst = protowire.AppendDouble(dst, 7, r.MXUUtil)
	for i, s := range r.Steps {
		dst = protowire.AppendMessageTag(dst, 8, st.steps[i])
		dst = appendStep(dst, s)
	}
	// Encoded only when set so pre-gap record bytes are unchanged.
	if r.Gap {
		dst = protowire.AppendBool(dst, 9, true)
	}
	if r.OpenStep != 0 {
		dst = protowire.AppendInt64(dst, 10, r.OpenStep)
	}
	return dst
}

// stepSize returns the encoded length of s.
func stepSize(s *StepStat) int {
	n := protowire.SizeInt64(1, s.Step) +
		protowire.SizeUint64(2, uint64(s.Start)) +
		protowire.SizeUint64(3, uint64(s.End)) +
		protowire.SizeDouble(4) + protowire.SizeDouble(5)
	for i := range s.Ops {
		n += protowire.SizeBytes(6, opSize(&s.Ops[i]))
	}
	return n
}

// opSize returns the encoded length of an op entry.
func opSize(e *OpTotal) int {
	return protowire.SizeBytes(1, len(e.Name)) +
		protowire.SizeUint64(2, uint64(e.Device)) +
		protowire.SizeUint64(3, uint64(e.Count)) +
		protowire.SizeUint64(4, uint64(e.Total))
}

func appendStep(dst []byte, s *StepStat) []byte {
	dst = protowire.AppendInt64(dst, 1, s.Step)
	dst = protowire.AppendUint64(dst, 2, uint64(s.Start))
	dst = protowire.AppendUint64(dst, 3, uint64(s.End))
	dst = protowire.AppendDouble(dst, 4, s.IdleFrac)
	dst = protowire.AppendDouble(dst, 5, s.MXUUtil)
	// The list's order is the wire's: reproducible bytes need no sort.
	for i := range s.Ops {
		e := &s.Ops[i]
		dst = protowire.AppendMessageTag(dst, 6, opSize(e))
		dst = protowire.AppendString(dst, 1, e.Name)
		dst = protowire.AppendUint64(dst, 2, uint64(e.Device))
		dst = protowire.AppendUint64(dst, 3, uint64(e.Count))
		dst = protowire.AppendUint64(dst, 4, uint64(e.Total))
	}
	return dst
}

// decState is what a decode borrows from decPool: the table through
// which decoded op entries share one string per distinct operator name,
// and a cache in front of it. A run has tens of distinct names and tens
// of thousands of op entries, so without sharing the names would be most
// of a decode's allocations, and the cache answers most entries without
// hashing the name. A decode has the state to itself — nothing is shared
// between goroutines — and every record decoded with it afterwards
// shares its strings.
type decState struct {
	names map[string]string
	// recent holds strings names handed out, two to a set, the one used
	// last first; a name is looked for only in the set nameSet gives it.
	recent [nameSets][2]string
}

func newDecState() *decState { return &decState{names: make(map[string]string)} }

var decPool = sync.Pool{New: func() any { return newDecState() }}

// Bounds on a name table, so that records from a hostile encoder cannot
// grow it: names past either bound are allocated per entry, and a table
// that filled up is emptied when its decode ends rather than pooled full
// of names no later record will carry.
const (
	maxSharedNames   = 1024
	maxSharedNameLen = 128
)

// The name cache holds 256 strings in 128 sets of two. On the 68
// distinct names of the Table I recordings that answers 98% of entries;
// one string to a slot, 256 slots, answered 84%, two names used in turn
// evicting each other wherever they shared a slot.
const (
	nameSetBits = 7
	nameSets    = 1 << nameSetBits
)

// nameSet picks a non-empty name's cache set from its length and its
// first, middle and last bytes — numbered variants such as "fusion.3" and
// "fusion.4" differ only at the end.
func nameSet(b []byte) uint32 {
	h := uint32(len(b)) | uint32(b[0])<<8 | uint32(b[len(b)/2])<<16 | uint32(b[len(b)-1])<<24
	return h * 0x9e3779b1 >> (32 - nameSetBits)
}

// name returns the non-empty name b as a string: the one every earlier
// entry of that name got from this table, where the bounds allow.
func (st *decState) name(b []byte) string {
	set := &st.recent[nameSet(b)]
	if set[0] == string(b) {
		return set[0]
	}
	if set[1] == string(b) {
		set[0], set[1] = set[1], set[0]
		return set[0]
	}
	s, ok := st.names[string(b)]
	if !ok {
		s = string(b)
		if len(s) > maxSharedNameLen || len(st.names) >= maxSharedNames {
			return s
		}
		st.names[s] = s
	}
	set[0], set[1] = s, set[0]
	return s
}

// maxPresize caps the capacity a decode reserves on the strength of a
// count: real windows hold tens of steps and real steps tens of
// operators, and a hostile message is mostly tags.
const maxPresize = 4096

// UnmarshalRecord decodes a ProfileRecord from protobuf wire format.
//
// A field is read by its number, whatever wire type its tag claims (a
// tag's type only decides how an unknown field is skipped). A tag with
// field number 0 or wire type 3 to 7, a device above TPU and an op entry
// without a name are malformed. A step's op entries may come in any
// order, operators repeated: they fold into the sorted list, summed.
// Steps and Ops are nil, never empty.
//
// The record's steps live in one []StepStat and all their op entries in
// one []OpTotal, both allocated for this record. Each step's Ops is a
// sub-slice whose capacity is its length, so growing it (Observe, Merge,
// MergeOps) copies it out rather than writing into a neighbour's entries.
// A step kept beyond the record keeps the whole record's slabs alive:
// clone it (StepStat.Clone) to keep it alone.
func UnmarshalRecord(data []byte) (*ProfileRecord, error) {
	st := decPool.Get().(*decState)
	r, err := unmarshalRecord(data, st)
	if len(st.names) >= maxSharedNames {
		clear(st.names)
		st.recent = [nameSets][2]string{}
	}
	decPool.Put(st)
	return r, err
}

// slabs is one record's decode target: every step and every op entry it
// holds, in wire order.
type slabs struct {
	st    *decState
	steps []StepStat
	ops   []OpTotal
}

func unmarshalRecord(data []byte, st *decState) (*ProfileRecord, error) {
	d := slabs{st: st}
	if steps, ops := countEntries(data); steps > 0 {
		d.steps = make([]StepStat, 0, steps)
		if ops > 0 {
			d.ops = make([]OpTotal, 0, ops)
		}
	}
	r := &ProfileRecord{}
	for b := data; len(b) > 0; {
		f, t, n := protowire.ConsumeTag(b)
		if n < 0 {
			return nil, protowire.ParseError(n)
		}
		b = b[n:]
		var v uint64
		switch f {
		case 1:
			v, n = protowire.ConsumeVarint(b)
			r.Seq = int64(v)
		case 2:
			v, n = protowire.ConsumeVarint(b)
			r.WindowStart = simclock.Time(v)
		case 3:
			v, n = protowire.ConsumeVarint(b)
			r.WindowEnd = simclock.Time(v)
		case 4:
			v, n = protowire.ConsumeVarint(b)
			r.NumEvents = int64(v)
		case 5:
			v, n = protowire.ConsumeVarint(b)
			r.Truncated = v != 0
		case 6:
			v, n = protowire.ConsumeFixed64(b)
			r.IdleFrac = math.Float64frombits(v)
		case 7:
			v, n = protowire.ConsumeFixed64(b)
			r.MXUUtil = math.Float64frombits(v)
		case 8:
			var step []byte
			if step, n = protowire.ConsumeBytes(b); n >= 0 {
				if err := d.step(step); err != nil {
					return nil, err
				}
			}
		case 9:
			v, n = protowire.ConsumeVarint(b)
			r.Gap = v != 0
		case 10:
			v, n = protowire.ConsumeVarint(b)
			r.OpenStep = protowire.DecodeZigZag(v)
		default:
			n = protowire.ConsumeFieldValue(t, b)
		}
		if n < 0 {
			return nil, protowire.ParseError(n)
		}
		b = b[n:]
	}
	r.Steps = d.finish()
	return r, nil
}

// countEntries counts a record's steps and their op entries: the
// capacities of the two slabs. It skips by tag and length only and stops
// at the first tag or length it cannot parse, so on input the decode
// rejects, or reads differently (a field under another wire type than
// its number's), the counts are only a hint, and a decode that finds
// more entries grows its slabs. The steps, and each step's entries, are
// counted up to maxPresize.
func countEntries(data []byte) (steps, ops int) {
	for len(data) > 0 && steps < maxPresize {
		f, t, n := protowire.ConsumeTag(data)
		if n < 0 {
			break
		}
		data = data[n:]
		if f == 8 && t == protowire.Bytes {
			var step []byte
			if step, n = protowire.ConsumeBytes(data); n >= 0 {
				steps++
				ops += countOps(step)
			}
		} else {
			n = protowire.ConsumeFieldValue(t, data)
		}
		if n < 0 {
			break
		}
		data = data[n:]
	}
	return steps, ops
}

// countOps is countEntries one level down: a step's op entries. An entry
// with a one-byte tag and length — every entry appendStep writes — is
// skipped by its length without parsing either.
func countOps(step []byte) int {
	k := 0
	for len(step) > 0 && k < maxPresize {
		if len(step) > 1 && step[0] == opTag && step[1] < 0x80 {
			n := 2 + int(step[1])
			if n > len(step) {
				break
			}
			step = step[n:]
			k++
			continue
		}
		f, t, n := protowire.ConsumeTag(step)
		if n < 0 {
			break
		}
		step = step[n:]
		if n = protowire.ConsumeFieldValue(t, step); n < 0 {
			break
		}
		step = step[n:]
		if f == 6 {
			k++
		}
	}
	return k
}

// step decodes one step onto the end of the slabs.
func (d *slabs) step(b []byte) error {
	d.steps = append(d.steps, StepStat{})
	s := &d.steps[len(d.steps)-1]
	lo := len(d.ops)
	for len(b) > 0 {
		if len(b) > 1 && b[0] == opTag && b[1] < 0x80 && int(b[1]) <= len(b)-2 {
			// An op entry with a one-byte tag and length: every entry
			// appendStep writes.
			n := 2 + int(b[1])
			if err := d.entry(b[2:n]); err != nil {
				return err
			}
			b = b[n:]
			continue
		}
		f, t, n := protowire.ConsumeTag(b)
		if n < 0 {
			return protowire.ParseError(n)
		}
		b = b[n:]
		var v uint64
		switch f {
		case 1:
			v, n = protowire.ConsumeVarint(b)
			s.Step = protowire.DecodeZigZag(v)
		case 2:
			v, n = protowire.ConsumeVarint(b)
			s.Start = simclock.Time(v)
		case 3:
			v, n = protowire.ConsumeVarint(b)
			s.End = simclock.Time(v)
		case 4:
			v, n = protowire.ConsumeFixed64(b)
			s.IdleFrac = math.Float64frombits(v)
		case 5:
			v, n = protowire.ConsumeFixed64(b)
			s.MXUUtil = math.Float64frombits(v)
		case 6:
			var op []byte
			if op, n = protowire.ConsumeBytes(b); n >= 0 {
				if err := d.entry(op); err != nil {
					return err
				}
			}
		default:
			n = protowire.ConsumeFieldValue(t, b)
		}
		if n < 0 {
			return protowire.ParseError(n)
		}
		b = b[n:]
	}
	if len(d.ops) > lo {
		// The step's entries end the op slab, so a fold stays inside
		// them; finish re-slices every step from the final slab.
		s.Ops = d.ops[lo:]
		if !inOrder(s.Ops) {
			s.Ops = foldOps(s.Ops)
			d.ops = d.ops[:lo+len(s.Ops)]
		}
	}
	return nil
}

// entry decodes one op entry onto the end of the op slab: on the fast
// path if it takes the entry, field by field if not.
func (d *slabs) entry(b []byte) error {
	if d.fastOp(b) {
		return nil
	}
	return d.op(b)
}

// The one-byte tags of appendStep's op entries: the entry itself (field 6
// of a step, length-delimited) and its four fields in the order written.
const (
	opTag     = 6<<3 | byte(protowire.Bytes)
	nameTag   = 1<<3 | byte(protowire.Bytes)
	deviceTag = 2<<3 | byte(protowire.Varint)
	countTag  = 3<<3 | byte(protowire.Varint)
	totalTag  = 4<<3 | byte(protowire.Varint)
)

// fastOp decodes b onto the end of the op slab if it is an op entry in
// exactly the layout appendStep writes, and reports whether it did: a
// name of 1 to 127 bytes, a one-byte device of Host or TPU, a count and a
// total, each once, in that order, under one-byte tags, and nothing
// after. Anything else it declines, leaving the slab as it was, to op,
// which stays the one definition of what an entry means: an entry fastOp
// takes is one op would decode to the same value.
func (d *slabs) fastOp(b []byte) bool {
	if len(b) < 2 || b[0] != nameTag || b[1] == 0 || b[1] >= 0x80 {
		return false
	}
	i := 2 + int(b[1]) // the device's tag
	if len(b) < i+4 || b[i] != deviceTag || b[i+1] > byte(TPU) || b[i+2] != countTag {
		return false
	}
	count, n := protowire.ConsumeVarint(b[i+3:])
	if n < 0 {
		return false
	}
	j := i + 3 + n // the total's tag
	if j >= len(b) || b[j] != totalTag {
		return false
	}
	total, n := protowire.ConsumeVarint(b[j+1:])
	if n < 0 || j+1+n != len(b) {
		return false
	}
	d.ops = append(d.ops, OpTotal{
		Name:   d.st.name(b[2:i]),
		Device: Device(b[i+1]),
		Count:  int64(count),
		Total:  simclock.Duration(total),
	})
	return true
}

// op decodes one op entry onto the end of the op slab.
func (d *slabs) op(b []byte) error {
	var name []byte
	var e OpTotal
	for len(b) > 0 {
		f, t, n := protowire.ConsumeTag(b)
		if n < 0 {
			return protowire.ParseError(n)
		}
		b = b[n:]
		var v uint64
		switch f {
		case 1:
			name, n = protowire.ConsumeBytes(b)
		case 2:
			v, n = protowire.ConsumeVarint(b)
			if n >= 0 && v > uint64(TPU) {
				return fmt.Errorf("trace: bad device %d", v)
			}
			e.Device = Device(v)
		case 3:
			v, n = protowire.ConsumeVarint(b)
			e.Count = int64(v)
		case 4:
			v, n = protowire.ConsumeVarint(b)
			e.Total = simclock.Duration(v)
		default:
			n = protowire.ConsumeFieldValue(t, b)
		}
		if n < 0 {
			return protowire.ParseError(n)
		}
		b = b[n:]
	}
	if len(name) == 0 {
		return fmt.Errorf("trace: op entry without name")
	}
	e.Name = d.st.name(name)
	d.ops = append(d.ops, e)
	return nil
}

// finish points each step's Ops into the final op slab — a slab that
// grew past its count left the earlier steps' lists in an older array —
// capped at its own entries, and returns the steps' pointers, or nil for
// a record without steps.
func (d *slabs) finish() []*StepStat {
	if len(d.steps) == 0 {
		return nil
	}
	out := make([]*StepStat, len(d.steps))
	lo := 0
	for i := range d.steps {
		s := &d.steps[i]
		if hi := lo + len(s.Ops); hi > lo {
			s.Ops = d.ops[lo:hi:hi]
			lo = hi
		}
		out[i] = s
	}
	return out
}

// inOrder reports whether ops is in list order: strictly ascending, so
// one entry per operator.
func inOrder(ops []OpTotal) bool {
	for i := 1; i < len(ops); i++ {
		if ops[i-1].Key().Compare(ops[i].Key()) >= 0 {
			return false
		}
	}
	return true
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
