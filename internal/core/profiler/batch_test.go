package profiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/trace"
)

// batchSink is the smallest BatchStore: it decodes each framed batch
// and keeps the records, rejecting a batch whole when a frame is
// malformed or the count is not the caller's.
type batchSink struct {
	recs []*trace.ProfileRecord
}

func (s *batchSink) Put(name string, data []byte) (*storage.Object, error) {
	return nil, fmt.Errorf("batchSink: %s written through Put, not PutBatch", name)
}

func (s *batchSink) PutBatch(name string, framed []byte, count int) (*storage.Object, error) {
	frames, err := trace.SplitFramed(framed)
	if err != nil {
		return nil, err
	}
	if len(frames) != count {
		return nil, fmt.Errorf("batch %s carries %d records, caller said %d", name, len(frames), count)
	}
	batch := make([]*trace.ProfileRecord, len(frames))
	for i, f := range frames {
		if batch[i], err = trace.UnmarshalRecord(f); err != nil {
			return nil, err
		}
	}
	s.recs = append(s.recs, batch...)
	return &storage.Object{Name: name}, nil
}

// TestBatchRecordsRoundTripPlainBucket runs the profiler with batching
// enabled against a plain bucket (no BatchStore fast path): batches land
// as framed batch-* objects and LoadRecords must reassemble the exact
// record stream the profiler returned.
func TestBatchRecordsRoundTripPlainBucket(t *testing.T) {
	r := fixture(t, 2000)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	p := New(&ServiceClient{Service: r.ProfileService()},
		Options{Bucket: bucket, BatchRecords: 8})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records collected")
	}

	names := bucket.List("profiles/")
	if len(names) == 0 {
		t.Fatal("nothing persisted")
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "profiles/batch-") {
			t.Fatalf("batching enabled but object %q is not a batch", name)
		}
	}

	loaded, err := LoadRecords(bucket, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(records) {
		t.Fatalf("loaded %d of %d records", len(loaded), len(records))
	}
	for i, rec := range loaded {
		if rec.Seq != records[i].Seq || rec.NumEvents != records[i].NumEvents {
			t.Fatalf("record %d: seq=%d events=%d, want seq=%d events=%d",
				i, rec.Seq, rec.NumEvents, records[i].Seq, records[i].NumEvents)
		}
	}
}

// TestBatchRecordsArchiveSink exercises the BatchStore fast path: a
// store that offers PutBatch gets every batch through it, framed and
// counted correctly, and ends up holding every record in order.
func TestBatchRecordsArchiveSink(t *testing.T) {
	r := fixture(t, 2000)
	sink := &batchSink{}
	p := New(&ServiceClient{Service: r.ProfileService()},
		Options{Bucket: sink, BatchRecords: 8})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || len(sink.recs) != len(records) {
		t.Fatalf("sink holds %d of %d records", len(sink.recs), len(records))
	}
	for i, rec := range sink.recs {
		if rec.Seq != records[i].Seq {
			t.Fatalf("sink record %d has seq %d, want %d", i, rec.Seq, records[i].Seq)
		}
	}
}

// TestBatchRecordsDefaultUnchanged pins backward compatibility: with
// BatchRecords unset the profiler still writes one record-* object per
// record, so pre-batching readers keep working.
func TestBatchRecordsDefaultUnchanged(t *testing.T) {
	r := fixture(t, 800)
	svc := storage.NewService()
	bucket, _ := svc.CreateBucket("b")
	p := New(&ServiceClient{Service: r.ProfileService()}, Options{Bucket: bucket})
	if err := p.Start(true); err != nil {
		t.Fatal(err)
	}
	records, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	names := bucket.List("profiles/")
	if len(names) != len(records) {
		t.Fatalf("%d objects for %d records; default must stay one per record",
			len(names), len(records))
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "profiles/record-") {
			t.Fatalf("default-mode object %q is not a record object", name)
		}
	}
}

// TestArchiveSinkPutBatchValidates covers the framed form's error paths
// as a BatchStore sees them: a count mismatch and a malformed frame are
// both detectable before any record of the batch is kept.
func TestArchiveSinkPutBatchValidates(t *testing.T) {
	sink := &batchSink{}
	rec := &trace.ProfileRecord{Seq: 1, WindowStart: 0, WindowEnd: 10}
	framed := trace.AppendFramedRecord(nil, rec)

	if _, err := sink.PutBatch("b", framed, 2); err == nil {
		t.Fatal("count mismatch accepted")
	}
	bad := append(append([]byte(nil), framed...), 2, 0x00, 0x01)
	if _, err := sink.PutBatch("b", bad, 2); err == nil {
		t.Fatal("malformed frame accepted")
	}
	if got := len(sink.recs); got != 0 {
		t.Fatalf("rejected batches landed %d records", got)
	}
	if _, err := sink.PutBatch("b", framed, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.recs); got != 1 {
		t.Fatalf("sink holds %d records, want 1", got)
	}
}
