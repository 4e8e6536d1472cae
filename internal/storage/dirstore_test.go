package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestDirStorePutGetDelete(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.Get("runs/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v, want ErrNotFound", err)
	}
	obj, err := d.Put("runs/a", []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 1 {
		t.Fatalf("first put generation %d, want 1", obj.Generation)
	}
	obj, err = d.Put("runs/a", []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 2 {
		t.Fatalf("second put generation %d, want 2", obj.Generation)
	}
	got, err := d.Get("runs/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "two" || got.Generation != 2 {
		t.Fatalf("get = %q gen %d", got.Data, got.Generation)
	}
	if !d.Exists("runs/a") || d.Exists("runs/b") {
		t.Fatal("Exists disagrees with Put")
	}
	if err := d.Delete("runs/a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("runs/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	// The last object under a directory takes the directory with it,
	// on the data side and the sidecar side; the fixed roots stay.
	for _, dir := range []string{"runs", filepath.Join(dirStoreMeta, "gen", "runs")} {
		if _, err := os.Stat(filepath.Join(root, dir)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("empty directory %s survived the delete (stat: %v)", dir, err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, dirStoreMeta, "gen")); err != nil {
		t.Fatalf("delete pruned the sidecar root: %v", err)
	}
	// Generation history does not survive deletion: recreation restarts.
	obj, err = d.Put("runs/a", []byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 1 {
		t.Fatalf("post-delete put generation %d, want 1", obj.Generation)
	}
}

func TestDirStorePutIfGenerations(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.PutIf("m", []byte("v1"), 1); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("create at gen 1: %v, want ErrGenerationMismatch", err)
	}
	obj, err := d.PutIf("m", []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 1 {
		t.Fatalf("created at generation %d, want 1", obj.Generation)
	}
	if _, err := d.PutIf("m", []byte("again"), 0); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("re-create: %v, want ErrGenerationMismatch", err)
	}
	if _, err := d.PutIf("m", []byte("stale"), 2); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("stale CAS: %v, want ErrGenerationMismatch", err)
	}
	obj, err = d.PutIf("m", []byte("v2"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 2 {
		t.Fatalf("CAS advanced to generation %d, want 2", obj.Generation)
	}
	got, _ := d.Get("m")
	if string(got.Data) != "v2" {
		t.Fatalf("after CAS data = %q", got.Data)
	}
}

func TestDirStoreAppend(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.Append("log", []byte("aa")); err != nil {
		t.Fatal(err)
	}
	obj, err := d.Append("log", []byte("bb"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Name != "log" || obj.Data != nil || obj.Generation != 2 {
		t.Fatalf("append returned %+v, want name and generation 2 only", obj)
	}
	got, err := d.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "aabb" || got.Generation != 2 {
		t.Fatalf("after appends: %q gen %d", got.Data, got.Generation)
	}
}

// TestDirStoreAppendIsInPlace: appending k bytes to an n-byte object
// costs O(k) — the data file keeps its inode (no rewrite + rename) and
// the bytes allocated per append stay far below the object's size (no
// read-back, no returned copy).
func TestDirStoreAppendIsInPlace(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const size, rounds = 4 << 20, 32
	if _, err := d.Put("sessions/tok/log", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "sessions", "tok", "log")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'x'}, 1<<10)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		if _, err := d.Append("sessions/tok/log", chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per > 32<<10 {
		t.Fatalf("a 1 KiB append to a 4 MiB object allocated %d bytes: it scales with the object", per)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("append replaced the data file instead of extending it")
	}
	tail, err := d.GetRange("sessions/tok/log", size-1, 1+rounds<<10)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{0}, bytes.Repeat(chunk, rounds)...); !bytes.Equal(tail, want) {
		t.Fatalf("appended bytes did not land after the old %d (tail is %d bytes)", size, len(tail))
	}
}

// TestDirStoreAppendInterleavesWithCAS: two handles (two processes)
// mixing Append with Get + PutIf(gen) on one object. A CAS loses to a
// foreign append, and the bytes land in call order.
func TestDirStoreAppendInterleavesWithCAS(t *testing.T) {
	root := t.TempDir()
	a, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	must := func(_ *Object, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Append("j", []byte("1")))
	must(b.Append("j", []byte("2")))
	seen, err := a.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	must(b.Append("j", []byte("3")))
	if _, err := a.PutIf("j", nil, seen.Generation); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("truncate raced past a foreign append: %v", err)
	}
	must(a.Append("j", []byte("4")))
	cur, err := b.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if string(cur.Data) != "1234" || cur.Generation != 4 {
		t.Fatalf("interleaved appends = %q gen %d, want 1234 gen 4", cur.Data, cur.Generation)
	}
	// With no append in between the swap wins, and appends continue on
	// the swapped-in file.
	must(b.PutIf("j", nil, cur.Generation))
	must(a.Append("j", []byte("5")))
	if got, _ := b.Get("j"); string(got.Data) != "5" || got.Generation != 6 {
		t.Fatalf("after swap + append: %q gen %d, want 5 gen 6", got.Data, got.Generation)
	}
}

// TestDirStoreFailedAppendRollsBack: a write that dies midway (disk
// full) is cut back off the file, so the object reads as before; the
// generation it bumped first stays burned, which fails stale CAS
// writers as any other write would.
func TestDirStoreFailedAppendRollsBack(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Append("log", []byte("intact")); err != nil {
		t.Fatal(err)
	}

	diskFull := errors.New("disk full (injected)")
	realWrite := d.write
	d.write = func(f *os.File, p []byte) (int, error) {
		n, _ := realWrite(f, p[:len(p)/2])
		return n, diskFull
	}
	if _, err := d.Append("log", []byte("half of this lands")); !errors.Is(err, diskFull) {
		t.Fatalf("append over a failing write: %v", err)
	}
	if _, err := d.Append("new/log", []byte("never existed")); !errors.Is(err, diskFull) {
		t.Fatalf("creating append over a failing write: %v", err)
	}
	d.write = realWrite

	got, err := d.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "intact" || got.Generation != 2 {
		t.Fatalf("after failed append: %q gen %d, want intact gen 2", got.Data, got.Generation)
	}
	if _, err := d.PutIf("log", nil, 1); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("CAS at the pre-failure generation: %v", err)
	}
	if d.Exists("new/log") {
		t.Fatal("failed creating append left an object behind")
	}
	if _, err := d.Append("log", []byte("+more")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get("log"); string(got.Data) != "intact+more" {
		t.Fatalf("append after rollback: %q", got.Data)
	}
}

// TestDirStoreRepeatedFailedCreateLeavesNothing: a creating append
// that fails removes the file it created, however many generations
// earlier failed attempts burned — freshness is whether the data file
// existed, not the generation.
func TestDirStoreRepeatedFailedCreateLeavesNothing(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	diskFull := errors.New("disk full (injected)")
	realWrite := d.write
	d.write = func(f *os.File, p []byte) (int, error) {
		n, _ := realWrite(f, p[:len(p)/2])
		return n, diskFull
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Append("new/log", []byte("never existed")); !errors.Is(err, diskFull) {
			t.Fatalf("failing creating append %d: %v", i, err)
		}
		if d.Exists("new/log") || len(d.List("")) != 0 {
			t.Fatalf("after %d failed creating appends: exists=%v, list=%v", i+1, d.Exists("new/log"), d.List(""))
		}
	}
	d.write = realWrite
	obj, err := d.Append("new/log", []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get("new/log"); string(got.Data) != "first" || got.Generation != obj.Generation || obj.Generation != 4 {
		t.Fatalf("append after failures: %q gen %d (append said %d), want first gen 4", got.Data, got.Generation, obj.Generation)
	}
}

// sidecar returns the raw bytes of name's generation sidecar.
func sidecar(t *testing.T, root, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, dirStoreMeta, "gen", filepath.FromSlash(name)))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDirStoreAppendConvertsCompactSidecar: a sidecar in the compact
// form every earlier build writes is read as its number, and the first
// append converts it to the tallied form one generation up.
func TestDirStoreAppendConvertsCompactSidecar(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, dirStoreMeta, "gen"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "log"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, dirStoreMeta, "gen", "log"), []byte("7"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	obj, err := d.Append("log", []byte("+new"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 8 {
		t.Fatalf("append over compact sidecar 7 returned generation %d, want 8", obj.Generation)
	}
	got, err := d.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "old+new" || got.Generation != 8 {
		t.Fatalf("after append: %q gen %d, want old+new gen 8", got.Data, got.Generation)
	}
	if got := sidecar(t, root, "log"); got != "8\n" {
		t.Fatalf("converted sidecar = %q, want %q", got, "8\n")
	}
}

// TestDirStoreAppendAdoptsFileWithoutSidecar: an adopted data file is
// at generation 1, so appending to it makes 2.
func TestDirStoreAppendAdoptsFileWithoutSidecar(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sessions", "tok"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sessions", "tok", "log"), []byte("copied"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	obj, err := d.Append("sessions/tok/log", []byte("+1"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 2 {
		t.Fatalf("append to an adopted file returned generation %d, want 2", obj.Generation)
	}
	if got, _ := d.Get("sessions/tok/log"); string(got.Data) != "copied+1" || got.Generation != 2 {
		t.Fatalf("after append: %q gen %d, want copied+1 gen 2", got.Data, got.Generation)
	}
}

// TestDirStorePutAfterTallyWritesCompactForm: appends tally, a Put
// folds the tally into the compact form, and the count goes on by one
// per write. An earlier build reading a tallied sidecar (TrimSpace +
// ParseInt) sees its base.
func TestDirStorePutAfterTallyWritesCompactForm(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var gen int64
	for i := 1; i <= 3; i++ {
		obj, err := d.Append("j", []byte{'a'})
		if err != nil {
			t.Fatal(err)
		}
		if gen = obj.Generation; gen != int64(i) {
			t.Fatalf("append %d returned generation %d", i, gen)
		}
	}
	raw := sidecar(t, root, "j")
	if raw != "1\n\n\n" {
		t.Fatalf("tallied sidecar after 3 appends = %q, want %q", raw, "1\n\n\n")
	}
	if old, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64); err != nil || old != 1 {
		t.Fatalf("an earlier build reads the tallied sidecar as %d, %v; want its base 1", old, err)
	}
	obj, err := d.Put("j", []byte("swapped"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Generation != 4 {
		t.Fatalf("put after 3 appends returned generation %d, want 4", obj.Generation)
	}
	if raw := sidecar(t, root, "j"); raw != "4" {
		t.Fatalf("sidecar after put = %q, want the compact %q", raw, "4")
	}
	if obj, err = d.Append("j", []byte("+")); err != nil || obj.Generation != 5 {
		t.Fatalf("append after put: generation %v, %v; want 5", obj, err)
	}
	if _, err := d.PutIf("j", nil, 4); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("CAS at the pre-append generation: %v", err)
	}
	if obj, err = d.PutIf("j", []byte("cas"), 5); err != nil || obj.Generation != 6 {
		t.Fatalf("CAS at the tallied generation: %v, %v; want generation 6", obj, err)
	}
	if got, _ := d.Get("j"); string(got.Data) != "cas" || got.Generation != 6 {
		t.Fatalf("after CAS: %q gen %d, want cas gen 6", got.Data, got.Generation)
	}
}

// TestDirStoreAppendCostIndependentOfTally: an append after 10 000
// appends allocates no more than one after a single append, so it
// reads the sidecar's header, not its tally.
func TestDirStoreAppendCostIndependentOfTally(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	chunk := []byte("rec")
	cost := func(name string) (allocs, bytes uint64) {
		const rounds = 64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			if _, err := d.Append(name, chunk); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.Mallocs - m0.Mallocs) / rounds, (m1.TotalAlloc - m0.TotalAlloc) / rounds
	}
	const long = 10000
	for i := 0; i < long; i++ {
		if _, err := d.Append("long", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Append("short", chunk); err != nil {
		t.Fatal(err)
	}
	if got := sidecar(t, root, "long"); len(got) != len("1\n")+long-1 {
		t.Fatalf("sidecar after %d appends is %d bytes, want the tallied %d", long, len(got), len("1\n")+long-1)
	}
	shortAllocs, shortBytes := cost("short")
	longAllocs, longBytes := cost("long")
	// The slack absorbs a stray runtime allocation; reading the tally
	// would cost its 10 000 bytes on every append.
	if longAllocs > shortAllocs || longBytes > shortBytes+512 {
		t.Fatalf("an append after %d appends costs %d allocs / %d B, after one %d allocs / %d B",
			long, longAllocs, longBytes, shortAllocs, shortBytes)
	}
	if got, _ := d.Get("long"); got.Generation != long+64 {
		t.Fatalf("generation after %d appends = %d", long+64, got.Generation)
	}
}

// BenchmarkDirStoreAppend: the cost of a 25 KiB append (one profile
// record) must not depend on the size of the object it lands on.
func BenchmarkDirStoreAppend(b *testing.B) {
	chunk := make([]byte, 25<<10)
	for _, size := range []int{0, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("object=%dKiB", size>>10), func(b *testing.B) {
			d, err := OpenDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if size > 0 {
				if _, err := d.Put("log", make([]byte, size)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(chunk)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Append("log", chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDirStoreListSkipsBookkeeping(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for _, name := range []string{"runs/z", "runs/a/idx", "other/x"} {
		if _, err := d.Put(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := d.List("runs/"), []string{"runs/a/idx", "runs/z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List(runs/) = %v, want %v", got, want)
	}
	for _, name := range d.List("") {
		if name == "" || name[0] == '.' {
			t.Fatalf("bookkeeping leaked into listing: %q", name)
		}
	}
	if got := len(d.List("")); got != 3 {
		t.Fatalf("full listing holds %d objects, want 3", got)
	}
}

// TestDirStoreSecondHandleSeesState stands in for the second replica
// process: a fresh OpenDir over the same directory must observe data
// AND generations, so a CAS raced from two handles conflicts instead
// of silently double-writing.
func TestDirStoreSecondHandleSeesState(t *testing.T) {
	root := t.TempDir()
	a, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.PutIf("m", []byte("from-a"), 0); err != nil {
		t.Fatal(err)
	}

	b, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "from-a" || got.Generation != 1 {
		t.Fatalf("second handle sees %q gen %d", got.Data, got.Generation)
	}
	if _, err := b.PutIf("m", []byte("from-b"), 1); err != nil {
		t.Fatal(err)
	}
	// The first handle's view advanced too — and its stale CAS loses.
	if _, err := a.PutIf("m", []byte("stale-a"), 1); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("stale cross-handle CAS: %v, want ErrGenerationMismatch", err)
	}
}

// TestDirStoreAdoptsExportedTree: raw files dropped into the directory
// (a copied tree, an rsync) are objects at generation 1.
func TestDirStoreAdoptsExportedTree(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "runs", "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := d.Get("runs/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Fatalf("adopted object at generation %d, want 1", got.Generation)
	}
	if _, err := d.PutIf("runs/manifest.json", []byte("{\"v\":2}"), 1); err != nil {
		t.Fatalf("CAS over adopted object: %v", err)
	}
}

func TestDirStoreRejectsEscapingNames(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range []string{"", "../escape", ".dirstore/lock", "a/../../b"} {
		if _, err := d.Put(name, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", name)
		}
	}
}

// TestDirStoreImportDirCompatible: the on-disk layout is raw bytes at
// object paths, so the plain files of a store — copied without its
// .dirstore bookkeeping — open as the same objects.
func TestDirStoreImportDirCompatible(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Put("runs/r1", []byte("payload")); err != nil {
		t.Fatal(err)
	}

	raw := t.TempDir()
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.Name() == dirStoreMeta:
			return filepath.SkipDir
		case e.IsDir():
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(raw, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenDir(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.List(""); len(got) != 1 || got[0] != "runs/r1" {
		t.Fatalf("raw tree lists %v, want [runs/r1]", got)
	}
	got, err := c.Get("runs/r1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "payload" {
		t.Fatalf("raw tree read %q", got.Data)
	}
}

// TestGetRangeErrorsAreTyped: both ranged stores tell a missing object
// (ErrNotFound) from a window the object does not contain
// (ErrRangeOutsideObject), including one whose end overflows int64 — the
// repository's fsck classifies on exactly that difference.
func TestGetRangeErrorsAreTyped(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b, err := NewService().CreateBucket("b")
	if err != nil {
		t.Fatal(err)
	}
	type store interface {
		RangeReader
		Put(name string, data []byte) (*Object, error)
	}
	for name, s := range map[string]store{"dirstore": d, "bucket": b} {
		if _, err := s.Put("pack", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if got, err := s.GetRange("pack", 4, 6); err != nil || string(got) != "456789" {
			t.Fatalf("%s: GetRange(4, 6) = %q, %v", name, got, err)
		}
		if _, err := s.GetRange("nosuch", 0, 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: missing object: err = %v, want ErrNotFound", name, err)
		}
		for _, w := range [][2]int64{{4, 7}, {11, 0}, {-1, 2}, {0, -1}, {1<<63 - 6, 10}} {
			if _, err := s.GetRange("pack", w[0], w[1]); !errors.Is(err, ErrRangeOutsideObject) {
				t.Fatalf("%s: GetRange(%d, %d) of 10 bytes: err = %v, want ErrRangeOutsideObject", name, w[0], w[1], err)
			}
		}
	}
}
