package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/simclock"
)

// appendTestRecords covers the encoder's shapes: the multi-step sample,
// a gap marker, an empty record, and a wide op list (many operators per
// step, added out of order).
func appendTestRecords() []*ProfileRecord {
	wide := NewStepStat(7)
	wide.Start, wide.End = 10, 20
	for i := 0; i < 40; i++ {
		name := "op" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		wide.add(OpTotal{Name: name, Device: Device(i % 2),
			Count: int64(i + 1), Total: simclock.Duration(100 * (i + 1)),
		})
	}
	return []*ProfileRecord{
		sampleRecord(),
		{Seq: 9, Gap: true},
		{},
		{Seq: 3, WindowStart: 5, WindowEnd: 25, Steps: []*StepStat{wide}, OpenStep: math.MaxInt64},
	}
}

func TestMarshalRecordAppendMatchesMarshal(t *testing.T) {
	for i, r := range appendTestRecords() {
		want := MarshalRecord(r)
		if got := MarshalRecordAppend(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("record %d: append-from-nil bytes differ", i)
		}
		prefix := []byte("prefix")
		got := MarshalRecordAppend(append([]byte(nil), prefix...), r)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("record %d: append onto prefix corrupted output", i)
		}
	}
}

// TestMarshalRecordAppendConcurrent hammers the pooled scratch from many
// goroutines; run under -race it proves the pool hands each encode
// private state.
func TestMarshalRecordAppendConcurrent(t *testing.T) {
	recs := appendTestRecords()
	want := make([][]byte, len(recs))
	for i, r := range recs {
		want[i] = MarshalRecord(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				k := (g + i) % len(recs)
				buf = MarshalRecordAppend(buf[:0], recs[k])
				if !bytes.Equal(buf, want[k]) {
					t.Errorf("goroutine %d: record %d bytes differ", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMarshalRecordAppendZeroAlloc pins the hot-path contract: with a
// reused destination buffer and a warm pool, encoding allocates nothing.
// Race instrumentation adds bookkeeping allocations, so the assertion
// only runs in normal builds.
func TestMarshalRecordAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	r := sampleRecord()
	buf := MarshalRecordAppend(nil, r) // warm the pool and size the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = MarshalRecordAppend(buf[:0], r)
	})
	if allocs != 0 {
		t.Fatalf("MarshalRecordAppend with reused dst: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkMarshalRecordAppend is the pooled counterpart of
// BenchmarkMarshalRecord: same record, reused buffer. The allocs/op
// delta between the two is the win the pooled encoder state exists for.
func BenchmarkMarshalRecordAppend(b *testing.B) {
	r := sampleRecord()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = MarshalRecordAppend(buf[:0], r)
	}
}

// extremeRecords holds values at every varint length edge: seq, times and
// counts at 0, 127, 128 and the top of their range, negative steps and
// watermarks, names of 0, 127, 128 and 20 000 bytes, and a gap marker.
func extremeRecords() []*ProfileRecord {
	var recs []*ProfileRecord
	names := []string{"", strings.Repeat("n", 127), strings.Repeat("n", 128), strings.Repeat("x", 20000)}
	vals := []int64{0, 127, 128, 1 << 35, math.MaxInt64}
	for i, v := range vals {
		s := &StepStat{Step: -v, Start: simclock.Time(v), End: simclock.Time(v), IdleFrac: math.Inf(-1), MXUUtil: math.NaN()}
		for j, name := range names {
			s.Ops = append(s.Ops, OpTotal{Name: name, Device: Device(j / 2), Count: v, Total: simclock.Duration(v)})
		}
		recs = append(recs, &ProfileRecord{Seq: v, WindowStart: simclock.Time(v), WindowEnd: simclock.Time(v),
			NumEvents: v, Truncated: i%2 == 0, Gap: i%2 == 1, Steps: []*StepStat{s, {Step: v}}, OpenStep: -v - 1})
	}
	return recs
}

// TestMarshalRecordGrowsOnce: the encoder sizes the record before it
// writes it, so encoding into nil, or framing onto nil, allocates the
// result once, and the bytes are the staged encoder's (naiveMarshalRecord)
// at every length edge.
func TestMarshalRecordGrowsOnce(t *testing.T) {
	recs := append(appendTestRecords(), extremeRecords()...)
	for i, r := range recs {
		want := naiveMarshalRecord(r)
		if got := MarshalRecord(r); !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes, the staged encoder's %d (or not the same ones)", i, len(got), len(want))
		}
		framed := AppendFramedRecord([]byte("prefix"), r)
		want = binary.AppendUvarint([]byte("prefix"), uint64(len(want)))
		if want = append(want, naiveMarshalRecord(r)...); !bytes.Equal(framed, want) {
			t.Fatalf("record %d: the frame differs from the staged encoding's", i)
		}
	}
	if raceEnabled {
		return // allocation counts are inflated under -race
	}
	for i, r := range recs {
		MarshalRecord(r) // warm the pool
		if n := testing.AllocsPerRun(20, func() { MarshalRecordAppend(nil, r) }); n != 1 {
			t.Fatalf("record %d: MarshalRecordAppend onto nil allocates %v times, want 1", i, n)
		}
		if n := testing.AllocsPerRun(20, func() { AppendFramedRecord(nil, r) }); n != 1 {
			t.Fatalf("record %d: AppendFramedRecord onto nil allocates %v times, want 1", i, n)
		}
	}
}
