package profiler

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/archive"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ArchiveSink is a RecordStore that accumulates the recording thread's
// records straight into an archive writer. Set it as Options.Bucket and
// the profiler's persisted stream becomes an archive.Finalize away from
// a repository entry — no intermediate per-record objects.
//
// Safe for concurrent use: the recording goroutine writes while the
// run's end-of-life path finalizes.
type ArchiveSink struct {
	mu        sync.Mutex
	w         *archive.Writer
	finalized bool
}

// ErrSinkFinalized is returned for writes after Finalize.
var ErrSinkFinalized = errors.New("profiler: archive sink already finalized")

// NewArchiveSink starts an empty sink for the given run metadata.
func NewArchiveSink(meta archive.Meta) *ArchiveSink {
	return &ArchiveSink{w: archive.NewWriter(meta)}
}

// Put implements RecordStore: data must be a wire-encoded record. The
// object name is accepted for interface compatibility but not stored —
// archives order records by arrival.
func (s *ArchiveSink) Put(name string, data []byte) (*storage.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil, ErrSinkFinalized
	}
	if err := s.w.AddRaw(data); err != nil {
		return nil, err
	}
	return &storage.Object{Name: name}, nil
}

// PutBatch implements BatchStore: framed is a trace framed stream of
// count records, appended to the archive in order (atomically — a bad
// frame rejects the whole batch). Like Put, the object name is accepted
// but not stored.
func (s *ArchiveSink) PutBatch(name string, framed []byte, count int) (*storage.Object, error) {
	frames, err := trace.SplitFramed(framed)
	if err != nil {
		return nil, err
	}
	if len(frames) != count {
		return nil, fmt.Errorf("profiler: batch %s carries %d records, caller said %d",
			name, len(frames), count)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil, ErrSinkFinalized
	}
	if _, err := s.w.AddRawBatch(framed); err != nil {
		return nil, err
	}
	return &storage.Object{Name: name}, nil
}

// Records reports how many records the sink holds.
func (s *ArchiveSink) Records() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Records()
}

// Finalize seals the sink into archive bytes, embedding sum (which may
// be nil). Further Puts fail with ErrSinkFinalized.
func (s *ArchiveSink) Finalize(sum *archive.Summary) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil, ErrSinkFinalized
	}
	s.finalized = true
	return s.w.Finalize(sum), nil
}
