// Package storage simulates the Google Cloud Storage buckets that a Cloud
// TPU deployment depends on.
//
// In the paper's architecture the Compute Engine VM is the host, the TPU is
// a coprocessor, and Storage Buckets act as persistent memory for training
// data, model checkpoints, and the profile records TPUPoint-Profiler's
// recording thread streams out. This package provides bucket/object
// semantics over an in-memory store with optional generation tracking, and
// is safe for concurrent use — the recording goroutine writes while the
// training loop saves checkpoints.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when a bucket or object does not exist.
var ErrNotFound = errors.New("storage: object not found")

// ErrBucketExists is returned when creating a bucket that already exists.
var ErrBucketExists = errors.New("storage: bucket already exists")

// ErrGenerationMismatch is returned by PutIf when the object's current
// generation does not match the caller's expectation — some other writer
// got there first (the GCS ifGenerationMatch precondition).
var ErrGenerationMismatch = errors.New("storage: generation mismatch")

// ErrRangeOutsideObject is returned by GetRange when the requested window
// does not lie inside the object: the object exists and was read, it is
// the caller's offset or length that is wrong.
var ErrRangeOutsideObject = errors.New("storage: range outside object")

// Object is a stored blob plus metadata. Get returns one that owns its
// Data slice: mutating it never corrupts the stored copy, and later
// writes never show through it (see TestObjectDataIsDefensiveCopy).
// Put, PutIf and Append return the name and new generation only, with
// Data nil — a write does not hand the caller's bytes back.
type Object struct {
	Name       string
	Data       []byte
	Generation int64 // bumped on every overwrite, like GCS generations
}

// Bucket is a flat namespace of objects.
type Bucket struct {
	name string

	mu      sync.RWMutex
	objects map[string]*Object
	nextGen int64
}

// Service is a collection of buckets, the root of the simulated storage API.
type Service struct {
	mu      sync.RWMutex
	buckets map[string]*Bucket
}

// NewService returns an empty storage service.
func NewService() *Service {
	return &Service{buckets: make(map[string]*Bucket)}
}

// CreateBucket creates a bucket. It fails if the name is empty or taken.
func (s *Service) CreateBucket(name string) (*Bucket, error) {
	if name == "" {
		return nil, errors.New("storage: empty bucket name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	b := &Bucket{name: name, objects: make(map[string]*Object), nextGen: 1}
	s.buckets[name] = b
	return b, nil
}

// Bucket returns an existing bucket.
func (s *Service) Bucket(name string) (*Bucket, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[name]
	if !ok {
		return nil, fmt.Errorf("%w: bucket %q", ErrNotFound, name)
	}
	return b, nil
}

// EnsureBucket returns the named bucket, creating it if needed.
func (s *Service) EnsureBucket(name string) (*Bucket, error) {
	if b, err := s.Bucket(name); err == nil {
		return b, nil
	}
	b, err := s.CreateBucket(name)
	if errors.Is(err, ErrBucketExists) {
		return s.Bucket(name)
	}
	return b, err
}

// Buckets returns all bucket names in sorted order.
func (s *Service) Buckets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the bucket name.
func (b *Bucket) Name() string { return b.name }

// Put stores data under name, overwriting any prior object and bumping the
// generation. The data is copied; callers may reuse their buffer.
func (b *Bucket) Put(name string, data []byte) (*Object, error) {
	if name == "" {
		return nil, errors.New("storage: empty object name")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.storeLocked(name, cp), nil
}

// PutIf stores data under name only if the object's current generation
// equals gen; gen 0 means the object must not exist yet. Any other state
// fails with ErrGenerationMismatch and leaves the bucket untouched. This
// is the compare-and-swap primitive concurrent manifest writers (the run
// repository) use to serialize read-modify-write updates.
func (b *Bucket) PutIf(name string, data []byte, gen int64) (*Object, error) {
	if name == "" {
		return nil, errors.New("storage: empty object name")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	defer b.mu.Unlock()
	var cur int64
	if obj, ok := b.objects[name]; ok {
		cur = obj.Generation
	}
	if cur != gen {
		return nil, fmt.Errorf("%w: %s/%s at generation %d, expected %d",
			ErrGenerationMismatch, b.name, name, cur, gen)
	}
	return b.storeLocked(name, cp), nil
}

// storeLocked installs data (which the bucket now owns) under name at
// the next generation and returns the write's metadata. Caller holds
// the write lock.
func (b *Bucket) storeLocked(name string, data []byte) *Object {
	gen := b.nextGen
	b.nextGen++
	b.objects[name] = &Object{Name: name, Data: data, Generation: gen}
	return &Object{Name: name, Generation: gen}
}

// copy returns an Object whose Data is independent of the stored slice.
func (o *Object) copy() *Object {
	cp := make([]byte, len(o.Data))
	copy(cp, o.Data)
	return &Object{Name: o.Name, Data: cp, Generation: o.Generation}
}

// Get returns the object stored under name. The returned data is a copy;
// callers may mutate it freely without corrupting the bucket.
func (b *Bucket) Get(name string) (*Object, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	obj, ok := b.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, b.name, name)
	}
	return obj.copy(), nil
}

// RangeReader is the optional capability of stores that can serve a
// byte range of an object without materializing the whole blob — the
// GCS "Range:" header. Callers discover it with a type assertion and
// fall back to Get-and-slice when the store lacks it, so decorators
// (fault injectors, crash simulators) stay compatible without
// forwarding the method.
type RangeReader interface {
	GetRange(name string, off, n int64) ([]byte, error)
}

// GetRange returns a copy of n bytes of the object starting at off.
// Unlike Get it copies only the requested window, which is what makes
// reading one run out of a multi-megabyte consolidated pack cheap.
func (b *Bucket) GetRange(name string, off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	obj, ok := b.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, b.name, name)
	}
	if !rangeWithin(off, n, int64(len(obj.Data))) {
		return nil, fmt.Errorf("%w: %d bytes at %d of %s/%s (%d bytes)",
			ErrRangeOutsideObject, n, off, b.name, name, len(obj.Data))
	}
	cp := make([]byte, n)
	copy(cp, obj.Data[off:off+n])
	return cp, nil
}

// rangeWithin reports whether [off, off+n) lies inside an object of
// size bytes, without overflowing on a hostile off or n.
func rangeWithin(off, n, size int64) bool {
	return off >= 0 && n >= 0 && n <= size && off <= size-n
}

// Exists reports whether an object is present.
func (b *Bucket) Exists(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.objects[name]
	return ok
}

// Delete removes an object; deleting a missing object returns ErrNotFound.
func (b *Bucket) Delete(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.objects[name]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, b.name, name)
	}
	delete(b.objects, name)
	return nil
}

// List returns the names of objects with the given prefix, sorted.
func (b *Bucket) List(prefix string) []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var names []string
	for n := range b.objects {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Size returns the stored byte size of an object, or an error if missing.
func (b *Bucket) Size(name string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	obj, ok := b.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, b.name, name)
	}
	return int64(len(obj.Data)), nil
}

// TotalBytes returns the sum of all object sizes in the bucket.
func (b *Bucket) TotalBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var total int64
	for _, obj := range b.objects {
		total += int64(len(obj.Data))
	}
	return total
}

// Append appends data to an existing object, creating it if absent. This is
// how the profiler's recording thread accumulates a profile log without
// rewriting the whole object each time.
func (b *Bucket) Append(name string, data []byte) (*Object, error) {
	if name == "" {
		return nil, errors.New("storage: empty object name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var old []byte
	if obj, ok := b.objects[name]; ok {
		old = obj.Data
	}
	return b.storeLocked(name, append(old, data...)), nil
}
