package trace

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// manyNamesRecord is one step carrying n distinct operator names, a
// quarter of them longer than the table shares. (Built in list order:
// the long all-digit names sort before the "op…" ones.)
func manyNamesRecord(n int) *ProfileRecord {
	s := NewStepStat(1)
	for i := 0; i < n; i += 4 {
		s.Ops = append(s.Ops, OpTotal{Name: fmt.Sprintf("%0*d", maxSharedNameLen+1, i), Device: TPU, Count: int64(i), Total: 1})
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			s.Ops = append(s.Ops, OpTotal{Name: fmt.Sprintf("op%06d", i), Device: TPU, Count: int64(i), Total: 1})
		}
	}
	return &ProfileRecord{Seq: 1, Steps: []*StepStat{s}}
}

// TestNameTableBounded: a record with far more distinct names than the
// table may hold decodes to exactly what was encoded, the table stops at
// its bounds while it does, and the state goes back to the pool emptied
// rather than full of names no later record carries.
func TestNameTableBounded(t *testing.T) {
	rec := manyNamesRecord(100_000)
	wire := MarshalRecord(rec)

	st := newDecState()
	got, err := unmarshalRecord(wire, st)
	if err != nil {
		t.Fatal(err)
	}
	names := st.names
	CheckOps(t, "manyNamesRecord", rec.Steps[0])
	if !reflect.DeepEqual(got, rec) {
		t.Fatal("record with 100 000 distinct names did not round-trip")
	}
	if len(names) > maxSharedNames {
		t.Fatalf("name table holds %d names, cap %d", len(names), maxSharedNames)
	}
	for name := range names {
		if len(name) > maxSharedNameLen {
			t.Fatalf("name table holds a %d-byte name, cap %d", len(name), maxSharedNameLen)
		}
	}

	// Through the pool: whichever table the decode borrowed is not left
	// full. (Drain what is pooled, look, put back.)
	if _, err := UnmarshalRecord(wire); err != nil {
		t.Fatal(err)
	}
	var pooled []*decState
	for i := 0; i < 64; i++ {
		pooled = append(pooled, decPool.Get().(*decState))
	}
	for _, st := range pooled {
		if names := st.names; len(names) >= maxSharedNames {
			t.Fatalf("a pooled name table holds %d names after a hostile decode, cap %d", len(names), maxSharedNames)
		}
		decPool.Put(st)
	}
}

// TestNameTableSharesNames: decoded through one table, every entry of one
// operator carries the same string, across steps and across records.
func TestNameTableSharesNames(t *testing.T) {
	wire := MarshalRecord(sampleRecord())
	st := newDecState()
	a, err := unmarshalRecord(wire, st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := unmarshalRecord(wire, st)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{}
	for _, rec := range []*ProfileRecord{a, b} {
		for _, s := range rec.Steps {
			for _, e := range s.Ops {
				p := unsafe.StringData(e.Name)
				if q, ok := first[e.Name]; ok && q != p {
					t.Fatalf("operator %q decoded to two strings", e.Name)
				}
				first[e.Name] = p
			}
		}
	}
}

// TestUnmarshalRecordConcurrent decodes from many goroutines at once; run
// under -race it proves the pooled name tables are private to a decode.
func TestUnmarshalRecordConcurrent(t *testing.T) {
	recs := appendTestRecords()
	wire := make([][]byte, len(recs))
	for i, r := range recs {
		wire[i] = MarshalRecord(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(recs)
				got, err := UnmarshalRecord(wire[k])
				if err != nil {
					t.Errorf("goroutine %d: record %d: %v", g, k, err)
					return
				}
				if len(got.Steps) != len(recs[k].Steps) {
					t.Errorf("goroutine %d: record %d decoded %d steps, want %d", g, k, len(got.Steps), len(recs[k].Steps))
					return
				}
				for j, s := range got.Steps {
					if !reflect.DeepEqual(s, recs[k].Steps[j]) {
						t.Errorf("goroutine %d: record %d step %d differs", g, k, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
