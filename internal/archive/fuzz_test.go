package archive

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// FuzzOpen feeds arbitrary bytes to the archive reader, and the last
// 4 KB of them with an arbitrary CRC to the tail decoder. The contract
// under corruption is typed errors, never a panic — the same promise
// trace's record decoder makes (internal/trace/fuzz_test.go). Whenever
// Open accepts a blob, ReadSummary of its exact tail with Footer's CRC
// reads the same summary.
func FuzzOpen(f *testing.F) {
	// Seed with a small valid archive plus targeted mutations of it.
	w := NewWriter(Meta{RunID: "fuzz", Workload: "w"})
	w.SetSegmentTarget(64)
	for i := 0; i < 6; i++ {
		w.Add(trace.Reduce(int64(i), 0, []trace.Event{
			{Name: "MatMul", Device: trace.TPU, Start: 0, Dur: 10, Step: int64(i)},
		}, 0.2, 0.4))
	}
	valid := w.Finalize(&Summary{Workload: "w", Algorithm: "ols", Steps: 6,
		Phases: []PhaseSummary{{ID: 0, Steps: 6, Ops: []OpSummary{{Name: "MatMul", Device: trace.TPU, Count: 6, Total: 60}}}}})
	a, err := Open(valid)
	if err != nil {
		f.Fatal(err)
	}
	_, crc := a.Footer()
	f.Add(valid, crc)
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("TPAR"), crc)
	f.Add([]byte("TPAR\x01TPAF"), uint32(0))
	f.Add([]byte("\x00\x00\x00\x00TPAF"), uint32(0))
	for _, cut := range []int{1, 4, 8, len(valid) / 2} {
		if cut < len(valid) {
			f.Add(valid[:len(valid)-cut], crc)
		}
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped, crc)
	footerFlipped := append([]byte(nil), valid...)
	footerFlipped[len(footerFlipped)-TrailerLen-3] ^= 0x01
	f.Add(footerFlipped, crc)

	f.Fuzz(func(t *testing.T, data []byte, crc uint32) {
		_, _ = ReadSummary(data[max(0, len(data)-4<<10):], crc)
		a, err := Open(data)
		if err != nil {
			return
		}
		n, footerCRC := a.Footer()
		sum, err := ReadSummary(data[int64(len(data))-n-TrailerLen:], footerCRC)
		if err != nil {
			t.Fatalf("ReadSummary refused the tail of a blob Open accepts: %v", err)
		}
		// Compared as canonical bytes, not with reflect.DeepEqual, which
		// never equates a NaN the fuzzer puts in a double with itself.
		if want := a.Summary(); (sum == nil) != (want == nil) ||
			sum != nil && !bytes.Equal(MarshalSummary(sum), MarshalSummary(want)) {
			t.Fatalf("ReadSummary = %+v, Open's summary = %+v", sum, want)
		}
		// A blob that opens cleanly must also decode without panicking.
		if _, err := a.Records(); err != nil {
			return
		}
		_ = a.Meta()
		_ = a.Summary()
	})
}

// FuzzSalvage feeds arbitrary bytes to the lenient reader. Its
// contract is stronger than Open's: it must never panic, be fully
// deterministic, never hand back a record from a CRC-failing indexed
// segment, and agree with Open whenever Open succeeds.
func FuzzSalvage(f *testing.F) {
	w := NewWriter(Meta{RunID: "fuzz", Workload: "w"})
	w.SetSegmentTarget(64)
	for i := 0; i < 6; i++ {
		w.Add(trace.Reduce(int64(i), 0, []trace.Event{
			{Name: "MatMul", Device: trace.TPU, Start: 0, Dur: 10, Step: int64(i)},
		}, 0.2, 0.4))
	}
	valid := w.Finalize(nil)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("TPAR\x01"))
	for _, cut := range []int{1, 4, TrailerLen, len(valid) / 2} {
		if cut < len(valid) {
			f.Add(valid[:len(valid)-cut])
		}
	}
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+9] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Salvage(data)
		res2, err2 := Salvage(data)
		if (err == nil) != (err2 == nil) {
			t.Fatal("salvage error nondeterministic")
		}
		if err != nil {
			return
		}
		if int64(len(res.Records)) != res.Report.RecordsKept ||
			len(res.Records) != len(res2.Records) ||
			renderReport(res.Report) != renderReport(res2.Report) {
			t.Fatalf("salvage nondeterministic: %+v vs %+v", res.Report, res2.Report)
		}
		for i := range res.Records {
			if string(trace.MarshalRecord(res.Records[i])) != string(trace.MarshalRecord(res2.Records[i])) {
				t.Fatal("salvaged records nondeterministic")
			}
		}
		// Whatever survives must re-archive into a blob Open verifies.
		if _, err := Open(Rebuild(res.Meta, res)); err != nil {
			t.Fatalf("rebuilt salvage does not verify: %v", err)
		}
		// Agreement with the strict reader.
		if a, err := Open(data); err == nil {
			want, err := a.Records()
			if err == nil {
				if !res.Report.Lossless() || len(res.Records) != len(want) {
					t.Fatalf("Open succeeded but salvage lost data: %+v", res.Report)
				}
			}
		}
	})
}
