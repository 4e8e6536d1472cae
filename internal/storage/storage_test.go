package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestCreateAndGetBucket(t *testing.T) {
	s := NewService()
	b, err := s.CreateBucket("tpu-data")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "tpu-data" {
		t.Fatalf("name = %q", b.Name())
	}
	got, err := s.Bucket("tpu-data")
	if err != nil || got != b {
		t.Fatalf("Bucket lookup: %v %v", got, err)
	}
}

func TestCreateDuplicateBucket(t *testing.T) {
	s := NewService()
	if _, err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateBucket("b"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("err = %v, want ErrBucketExists", err)
	}
}

func TestEmptyBucketName(t *testing.T) {
	s := NewService()
	if _, err := s.CreateBucket(""); err == nil {
		t.Fatal("empty bucket name accepted")
	}
}

func TestMissingBucket(t *testing.T) {
	s := NewService()
	if _, err := s.Bucket("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestEnsureBucket(t *testing.T) {
	s := NewService()
	b1, err := s.EnsureBucket("x")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.EnsureBucket("x")
	if err != nil || b1 != b2 {
		t.Fatalf("EnsureBucket not idempotent: %v %v", b2, err)
	}
}

func TestBucketsSorted(t *testing.T) {
	s := NewService()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := s.CreateBucket(n); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Buckets()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Buckets() = %v", got)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	data := []byte("checkpoint-bytes")
	if _, err := b.Put("ckpt/model-100", data); err != nil {
		t.Fatal(err)
	}
	obj, err := b.Get("ckpt/model-100")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj.Data, data) {
		t.Fatalf("data = %q", obj.Data)
	}
}

func TestPutCopiesData(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	data := []byte("aaaa")
	b.Put("o", data)
	data[0] = 'z'
	obj, _ := b.Get("o")
	if obj.Data[0] != 'a' {
		t.Fatal("Put aliased caller buffer")
	}
}

func TestGetCopiesData(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	b.Put("o", []byte("aaaa"))
	obj, _ := b.Get("o")
	obj.Data[0] = 'z'
	again, _ := b.Get("o")
	if again.Data[0] != 'a' {
		t.Fatal("Get exposed internal buffer")
	}
}

func TestGenerationsIncrease(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	o1, _ := b.Put("o", []byte("1"))
	o2, _ := b.Put("o", []byte("2"))
	if o2.Generation <= o1.Generation {
		t.Fatalf("generations: %d then %d", o1.Generation, o2.Generation)
	}
}

func TestDelete(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	b.Put("o", []byte("x"))
	if err := b.Delete("o"); err != nil {
		t.Fatal(err)
	}
	if b.Exists("o") {
		t.Fatal("object still exists after delete")
	}
	if err := b.Delete("o"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestListPrefix(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	for _, n := range []string{"profiles/p1", "profiles/p2", "ckpt/c1"} {
		b.Put(n, []byte("x"))
	}
	got := b.List("profiles/")
	if len(got) != 2 || got[0] != "profiles/p1" || got[1] != "profiles/p2" {
		t.Fatalf("List = %v", got)
	}
	if all := b.List(""); len(all) != 3 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestSizeAndTotalBytes(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	b.Put("a", make([]byte, 100))
	b.Put("c", make([]byte, 50))
	if sz, _ := b.Size("a"); sz != 100 {
		t.Fatalf("Size = %d", sz)
	}
	if _, err := b.Size("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size(missing) err = %v", err)
	}
	if tb := b.TotalBytes(); tb != 150 {
		t.Fatalf("TotalBytes = %d", tb)
	}
}

func TestAppend(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	b.Append("log", []byte("abc"))
	b.Append("log", []byte("def"))
	obj, err := b.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Data) != "abcdef" {
		t.Fatalf("appended = %q", obj.Data)
	}
}

func TestAppendEmptyName(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	if _, err := b.Append("", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := b.Put("", []byte("x")); err == nil {
		t.Fatal("empty name accepted by Put")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				name := fmt.Sprintf("w%d/o%d", id, j)
				if _, err := b.Put(name, []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := b.Get(name); err != nil {
					t.Error(err)
					return
				}
				b.Append("shared-log", []byte{byte(id)})
			}
		}(i)
	}
	wg.Wait()
	if got := len(b.List("")); got != 801 {
		t.Fatalf("object count = %d, want 801", got)
	}
	if sz, _ := b.Size("shared-log"); sz != 800 {
		t.Fatalf("shared log size = %d, want 800", sz)
	}
}

func TestPropertyPutGetIdentity(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("p")
	f := func(name string, data []byte) bool {
		if name == "" {
			name = "fallback"
		}
		if _, err := b.Put(name, data); err != nil {
			return false
		}
		obj, err := b.Get(name)
		return err == nil && bytes.Equal(obj.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Regression: Objects returned by Put/Append used to alias the stored
// slice, so a caller scribbling on a returned buffer silently corrupted
// the bucket. Writes now return metadata only — there is nothing to
// alias — and every Get handout must be a defensive copy, including
// over an object that later Appends grow in place.
func TestObjectDataIsDefensiveCopy(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")

	put, err := b.Put("obj", []byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	cas, err := b.PutIf("obj", []byte("pristine"), put.Generation)
	if err != nil {
		t.Fatal(err)
	}
	app, err := b.Append("log", []byte("head"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Object{put, cas, app} {
		if w.Data != nil || w.Name == "" || w.Generation == 0 {
			t.Fatalf("write returned %+v, want name and generation only", w)
		}
	}

	held, err := b.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append("log", []byte("+tail")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held.Data, []byte("head")) {
		t.Fatalf("a later Append showed through an earlier Get: %q", held.Data)
	}
	for i := range held.Data {
		held.Data[i] = 'Y'
	}
	got, err := b.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("head+tail")) {
		t.Fatalf("Get return aliased the store: got %q", got.Data)
	}

	// And the Get copy keeps protecting reads, both directions.
	for i := range got.Data {
		got.Data[i] = 'W'
	}
	again, _ := b.Get("log")
	if !bytes.Equal(again.Data, []byte("head+tail")) {
		t.Fatalf("Get return aliased the store: got %q", again.Data)
	}
	if obj, _ := b.Get("obj"); !bytes.Equal(obj.Data, []byte("pristine")) {
		t.Fatalf("obj = %q", obj.Data)
	}
}

// Regression: the input buffer handed to Append must be copied on both
// branches (object creation and in-place growth) — the fleet's durable
// log hands Append a buffer it immediately reuses, so an aliasing
// Append would let later client writes rewrite acked history.
func TestAppendInputIsDefensiveCopy(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")

	buf := []byte("first")
	if _, err := b.Append("log", buf); err != nil { // create branch
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	buf2 := []byte("+second")
	if _, err := b.Append("log", buf2); err != nil { // in-place branch
		t.Fatal(err)
	}
	for i := range buf2 {
		buf2[i] = 'Y'
	}
	got, err := b.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("first+second")) {
		t.Fatalf("Append aliased its input: got %q", got.Data)
	}

	// Put's input too, for the same reason.
	pbuf := []byte("stored")
	if _, err := b.Put("obj", pbuf); err != nil {
		t.Fatal(err)
	}
	for i := range pbuf {
		pbuf[i] = 'Z'
	}
	if got, _ := b.Get("obj"); !bytes.Equal(got.Data, []byte("stored")) {
		t.Fatalf("Put aliased its input: got %q", got.Data)
	}
}

// Append participates in the bucket's single generation sequence: every
// append invalidates outstanding PutIf generations, and the generation
// an Append returns is swappable, so a Get → PutIf(gen) swap loses to
// any append that lands in between.
func TestAppendParticipatesInGenerations(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")

	created, err := b.Append("log", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := b.Append("log", []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if grown.Generation <= created.Generation {
		t.Fatalf("append did not advance the generation: %d -> %d",
			created.Generation, grown.Generation)
	}

	// A PutIf against the pre-append generation must lose…
	if _, err := b.PutIf("log", nil, created.Generation); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("stale truncate raced past an append: err = %v", err)
	}
	// …and one against the post-append generation must win.
	swapped, err := b.PutIf("log", nil, grown.Generation)
	if err != nil {
		t.Fatalf("current-generation truncate: %v", err)
	}
	// The swap advances the sequence again, so a third append's result
	// supersedes it.
	after, err := b.Append("log", []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation <= swapped.Generation {
		t.Fatalf("append after swap did not advance the generation: %d -> %d",
			swapped.Generation, after.Generation)
	}
	if got, _ := b.Get("log"); !bytes.Equal(got.Data, []byte("c")) {
		t.Fatalf("log = %q, want %q", got.Data, "c")
	}
}

func TestPutIf(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")

	// gen 0 = create-only: succeeds when absent, fails when present.
	obj, err := b.PutIf("m", []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutIf("m", []byte("v1b"), 0); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("create-only over existing object: err = %v", err)
	}

	// Matching generation swaps; stale generation fails and changes nothing.
	obj2, err := b.PutIf("m", []byte("v2"), obj.Generation)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutIf("m", []byte("v3"), obj.Generation); !errors.Is(err, ErrGenerationMismatch) {
		t.Fatalf("stale swap: err = %v", err)
	}
	got, _ := b.Get("m")
	if !bytes.Equal(got.Data, []byte("v2")) || got.Generation != obj2.Generation {
		t.Fatalf("after failed swap: data=%q gen=%d", got.Data, got.Generation)
	}
}

// Hammer PutIf from many writers doing read-modify-write loops; every
// increment must land exactly once — the property the run repository's
// manifest updates rely on.
func TestPutIfSerializesConcurrentWriters(t *testing.T) {
	s := NewService()
	b, _ := s.CreateBucket("b")
	if _, err := b.PutIf("counter", []byte{0}, 0); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for {
					cur, err := b.Get("counter")
					if err != nil {
						t.Error(err)
						return
					}
					next := []byte{cur.Data[0] + 1}
					if _, err := b.PutIf("counter", next, cur.Generation); err == nil {
						break
					} else if !errors.Is(err, ErrGenerationMismatch) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	got, _ := b.Get("counter")
	if int(got.Data[0]) != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got.Data[0], writers*perWriter)
	}
}
