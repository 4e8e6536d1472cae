// DirStore: a file-backed store so MULTIPLE collector processes can
// share one repository — the substrate the replicated-collection smoke
// test (and any real multi-process deployment without an object store)
// runs on. The in-memory Bucket cannot cross a process boundary.
//
// Layout keeps raw object bytes at their slash-mapped paths, so a tree
// of plain files (a copy, an rsync) opens as a store unchanged; it is
// also what `tpupoint -export` writes and `-analyze` reads.
// Bookkeeping goes under one hidden subtree:
//
//	<root>/<object path>              — raw object bytes
//	<root>/.dirstore/lock             — cross-process mutex (flock)
//	<root>/.dirstore/gen/<object>     — generation sidecar (below)
//
// A sidecar has one of two forms. Put and PutIf write the compact one,
// a decimal generation ("7"). Append writes the tallied one: a decimal
// base, a newline, then one tally byte ('\n') per Append since the last
// Put or PutIf, so the generation is base + tally count ("7\n\n\n" is
// 9). An Append bumps a tallied sidecar by appending one byte to it,
// reading only its size and its first bytes; a compact or missing
// sidecar is rewritten in the tallied form once, by temp file + rename.
// Compatibility: a missing sidecar reads as generation 1 if the data
// file exists (an adopted tree); earlier builds write only the compact
// form, which every build reads; and an earlier build reading a tallied
// sidecar sees its base (the tally bytes are whitespace to its
// TrimSpace + ParseInt), a stale generation for an appended object.
// Nothing compares one: the repository only CASes manifests, which are
// never appended to.
//
// Every operation holds the coarse store-wide flock: correctness over
// concurrency inside the store, because cross-replica parallelism in
// this system comes from sharding ABOVE the store (each replica owns
// disjoint manifest shards), not from intra-store lock splitting.
//
// Crash consistency: every write bumps the generation sidecar BEFORE
// it touches the data file — Put and PutIf by temp file + rename,
// Append by its one tally byte (or its one conversion rename). A crash
// between the two leaves a bumped generation over old bytes —
// observationally "the write never happened, the generation burned",
// which CAS writers already handle — never new bytes readable under an
// old generation (that would let a competing PutIf silently overwrite
// a committed write). Put and PutIf replace the data file by temp file
// + rename, so it is never torn. Append is in place: one O_APPEND write
// of exactly the caller's bytes, so its cost depends neither on the
// object's size nor on how many appends came before. A write that
// fails is truncated back off (or the file removed, if this call
// created it); only a crash mid-write can leave a torn tail, which is
// the debris the CRC-framed reader above the store (session-log
// resume) detects and trims. Readers in other processes never see a
// half-written tail, because every operation, reads included, holds
// the flock.
//
// Failure model: there is no fsync. "Acked ⇒ durable" holds against
// process death (a SIGKILL'd process loses nothing that reached the
// page cache, which is the failure the fleet smoke injects) and
// against an ordered power cut that stops every later write
// (faultnet.CrashStore, which the power-cut suites drive at every
// write boundary). It is NOT proven against a real power loss, where
// the kernel may persist the data before the sidecar, or neither. The
// repository's write order (objects before the manifest CAS), not the
// store, is what those suites check.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const dirStoreMeta = ".dirstore"

// DirStore is a Store over a directory tree, safe for concurrent use
// by multiple goroutines AND multiple processes on one machine.
type DirStore struct {
	root string

	// mu serializes goroutines within this process; the flock on lockf
	// serializes processes. Both are held for every operation.
	mu    sync.Mutex
	lockf *os.File

	// write is (*os.File).Write; a test substitutes one that fails
	// midway to drive Append's rollback.
	write func(f *os.File, p []byte) (int, error)
}

var _ RangeReader = (*DirStore)(nil)

// OpenDir opens (creating if needed) a directory-backed store at root.
func OpenDir(root string) (*DirStore, error) {
	if err := os.MkdirAll(filepath.Join(root, dirStoreMeta, "gen"), 0o755); err != nil {
		return nil, fmt.Errorf("storage: dirstore init: %w", err)
	}
	lockf, err := os.OpenFile(filepath.Join(root, dirStoreMeta, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: dirstore lock: %w", err)
	}
	return &DirStore{root: root, lockf: lockf, write: (*os.File).Write}, nil
}

// Close releases the lock file handle.
func (d *DirStore) Close() error { return d.lockf.Close() }

func dirStoreValidName(name string) error {
	if name == "" {
		return errors.New("storage: empty object name")
	}
	if strings.HasPrefix(name, dirStoreMeta) {
		return fmt.Errorf("storage: reserved object name %q", name)
	}
	if !filepath.IsLocal(filepath.FromSlash(name)) {
		return fmt.Errorf("storage: object name %q escapes the store", name)
	}
	return nil
}

func (d *DirStore) dataPath(name string) string {
	return filepath.Join(d.root, filepath.FromSlash(name))
}

func (d *DirStore) genPath(name string) string {
	return filepath.Join(d.root, dirStoreMeta, "gen", filepath.FromSlash(name))
}

// lock takes the cross-process store lock (plus the in-process mutex,
// since flock is per file-description, not per goroutine).
func (d *DirStore) lock() error {
	d.mu.Lock()
	if err := flockExclusive(d.lockf); err != nil {
		d.mu.Unlock()
		return fmt.Errorf("storage: dirstore lock: %w", err)
	}
	return nil
}

func (d *DirStore) unlock() {
	_ = flockRelease(d.lockf)
	d.mu.Unlock()
}

// readGen returns the object's generation: the sidecar's if it holds
// one, 1 for a data file without one (an adopted copied/rsync'd tree),
// 0 for no object at all. It reads only the sidecar's header.
func (d *DirStore) readGen(name string) int64 {
	if f, err := os.Open(d.genPath(name)); err == nil {
		g, _, ok := sidecarGen(f)
		f.Close()
		if ok {
			return g
		}
	}
	if _, serr := os.Stat(d.dataPath(name)); serr == nil {
		return 1
	}
	return 0
}

// sidecarHeader bounds the bytes a sidecar's generation is parsed
// from: an int64 in decimal and its newline fit.
const sidecarHeader = 32

// tally is the byte an Append adds to a tallied sidecar.
var tally = []byte{'\n'}

// sidecarGen reads the generation an open sidecar holds from its size
// and its first sidecarHeader bytes: base + tally count in the tallied
// form, the number itself in the compact form. ok is false for a
// sidecar that holds no positive generation, which reads as missing.
func sidecarGen(f *os.File) (gen int64, tallied, ok bool) {
	st, err := f.Stat()
	if err != nil {
		return 0, false, false
	}
	var buf [sidecarHeader]byte
	n, err := f.ReadAt(buf[:min(st.Size(), sidecarHeader)], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, false, false
	}
	head, base := buf[:n], buf[:n]
	if i := bytes.IndexByte(head, '\n'); i >= 0 {
		base, tallied = head[:i], true
	} else if st.Size() > sidecarHeader {
		return 0, false, false
	}
	g, err := strconv.ParseInt(string(bytes.TrimSpace(base)), 10, 64)
	if err != nil || g <= 0 {
		return 0, false, false
	}
	if tallied {
		g += st.Size() - int64(len(base)) - 1
	}
	return g, tallied, true
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeGen installs the object's compact generation sidecar — the first
// step of every Put and PutIf. Caller holds the lock.
func (d *DirStore) writeGen(name string, gen int64) error {
	return writeFileAtomic(d.genPath(name), []byte(strconv.FormatInt(gen, 10)))
}

// putLocked writes gen-then-data; caller holds the lock.
func (d *DirStore) putLocked(name string, data []byte, gen int64) (*Object, error) {
	if err := d.writeGen(name, gen); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(d.dataPath(name), data); err != nil {
		return nil, err
	}
	return &Object{Name: name, Generation: gen}, nil
}

// Put stores data under name unconditionally.
func (d *DirStore) Put(name string, data []byte) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	return d.putLocked(name, data, d.readGen(name)+1)
}

// PutIf stores data only if the object's current generation equals
// gen (0 = the object must not exist) — the compare-and-swap every
// manifest update rides on.
func (d *DirStore) PutIf(name string, data []byte, gen int64) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	cur := d.readGen(name)
	if cur != gen {
		return nil, fmt.Errorf("%w: %s at generation %d, want %d", ErrGenerationMismatch, name, cur, gen)
	}
	return d.putLocked(name, data, cur+1)
}

// Get reads an object and its generation.
func (d *DirStore) Get(name string) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	data, err := os.ReadFile(d.dataPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	return &Object{Name: name, Data: data, Generation: d.readGen(name)}, nil
}

// GetRange reads n bytes of an object starting at off, without reading
// the rest of it.
func (d *DirStore) GetRange(name string, off, n int64) ([]byte, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	f, err := os.Open(d.dataPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !rangeWithin(off, n, st.Size()) {
		return nil, fmt.Errorf("%w: %d bytes at %d of %s (%d bytes)", ErrRangeOutsideObject, n, off, name, st.Size())
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Append appends data to name in place, creating it if absent: the
// bytes of the existing object are neither read nor rewritten, and the
// generation is bumped by one tally byte on its sidecar.
func (d *DirStore) Append(name string, data []byte) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	gen, err := d.bumpGen(name)
	if err != nil {
		return nil, err
	}
	if err := d.appendData(d.dataPath(name), data); err != nil {
		return nil, err
	}
	return &Object{Name: name, Generation: gen}, nil
}

// bumpGen is Append's generation half, run before its data half: one
// tally byte on a tallied sidecar, or, for a compact or missing one, a
// rewrite in the tallied form one generation up. Caller holds the lock.
func (d *DirStore) bumpGen(name string) (int64, error) {
	path := d.genPath(name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	if err == nil {
		gen, tallied, _ := sidecarGen(f)
		if tallied {
			_, err := f.Write(tally)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return gen + 1, err
		}
		f.Close()
	}
	gen := d.readGen(name) + 1
	return gen, writeFileAtomic(path, append(strconv.AppendInt(nil, gen, 10), '\n'))
}

// appendData is Append's data half. A write that fails is undone — the
// file is cut back to its old length, or removed if this call created
// it — so only a crash leaves a torn tail.
func (d *DirStore) appendData(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	created := errors.Is(err, fs.ErrNotExist)
	if created {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o600)
		}
	}
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if _, err := d.write(f, data); err != nil {
		if created {
			_ = os.Remove(path) // best effort, as the truncate below
		} else {
			_ = f.Truncate(st.Size())
		}
		f.Close()
		return err
	}
	return f.Close()
}

// Delete removes an object and its generation sidecar.
func (d *DirStore) Delete(name string) error {
	if err := dirStoreValidName(name); err != nil {
		return err
	}
	if err := d.lock(); err != nil {
		return err
	}
	defer d.unlock()
	err := os.Remove(d.dataPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return err
	}
	_ = os.Remove(d.genPath(name))
	removeEmptyParents(d.dataPath(name), filepath.Clean(d.root))
	removeEmptyParents(d.genPath(name), filepath.Join(d.root, dirStoreMeta, "gen"))
	return nil
}

// removeEmptyParents removes path's parent directories, innermost
// first, up to but not including its ancestor stop (a cleaned path),
// ending at the first one that is not empty: a deleted object must not
// leave directories for every later List to walk.
func removeEmptyParents(path, stop string) {
	for dir := filepath.Dir(path); len(dir) > len(stop); dir = filepath.Dir(dir) {
		if os.Remove(dir) != nil {
			return
		}
	}
}

// Exists reports whether name holds an object.
func (d *DirStore) Exists(name string) bool {
	if dirStoreValidName(name) != nil {
		return false
	}
	if err := d.lock(); err != nil {
		return false
	}
	defer d.unlock()
	_, err := os.Stat(d.dataPath(name))
	return err == nil
}

// List returns the sorted object names with the given prefix.
func (d *DirStore) List(prefix string) []string {
	if err := d.lock(); err != nil {
		return nil
	}
	defer d.unlock()
	var names []string
	_ = filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // a racing delete is not a listing error
		}
		if e.IsDir() {
			if filepath.Base(path) == dirStoreMeta {
				return filepath.SkipDir
			}
			return nil
		}
		rel, rerr := filepath.Rel(d.root, path)
		if rerr != nil {
			return nil
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return nil // a writer's in-flight temp file
		}
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	sort.Strings(names)
	return names
}
