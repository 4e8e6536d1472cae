// ContendingStore: injected manifest contention. The repository's CAS
// loop only ever sees a generation mismatch when another writer really
// committed between its read and its PutIf — which makes the
// worst-case contention schedule hard to reach from tests that merely
// run many goroutines. ContendingStore manufactures the mismatch
// directly: every Nth conditional write fails with
// storage.ErrGenerationMismatch before touching the inner store, as if
// a phantom writer had slipped in. The decorated store still serves
// real PutIf semantics for the calls it lets through, so retry loops
// that re-read and re-apply converge exactly as they would against a
// genuinely contended bucket.
package faultnet

import (
	"fmt"
	"sync"

	"repro/internal/storage"
)

// ContendingStore decorates a FullStore, failing every Nth PutIf with
// a synthetic generation mismatch.
type ContendingStore struct {
	// Inner receives every call that is not scripted to fail.
	Inner FullStore

	// FailEvery, when positive, fails every Nth PutIf (counting from 1)
	// with storage.ErrGenerationMismatch. Zero disables injection.
	FailEvery int

	mu      sync.Mutex
	putIfs  int
	injects int
}

// Get forwards to Inner.
func (c *ContendingStore) Get(name string) (*storage.Object, error) { return c.Inner.Get(name) }

// Put forwards to Inner.
func (c *ContendingStore) Put(name string, data []byte) (*storage.Object, error) {
	return c.Inner.Put(name, data)
}

// PutIf fails every FailEvery-th call with a synthetic generation
// mismatch; the rest forward to Inner.
func (c *ContendingStore) PutIf(name string, data []byte, gen int64) (*storage.Object, error) {
	c.mu.Lock()
	c.putIfs++
	inject := c.FailEvery > 0 && c.putIfs%c.FailEvery == 0
	if inject {
		c.injects++
	}
	c.mu.Unlock()
	if inject {
		return nil, fmt.Errorf("%w: %s (injected contention)", storage.ErrGenerationMismatch, name)
	}
	return c.Inner.PutIf(name, data, gen)
}

// Append forwards to Inner.
func (c *ContendingStore) Append(name string, data []byte) (*storage.Object, error) {
	return c.Inner.Append(name, data)
}

// Delete forwards to Inner.
func (c *ContendingStore) Delete(name string) error { return c.Inner.Delete(name) }

// Exists forwards to Inner.
func (c *ContendingStore) Exists(name string) bool { return c.Inner.Exists(name) }

// List forwards to Inner.
func (c *ContendingStore) List(prefix string) []string { return c.Inner.List(prefix) }

// Injections reports how many PutIfs were failed by injection.
func (c *ContendingStore) Injections() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injects
}
