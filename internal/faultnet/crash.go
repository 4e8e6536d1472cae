// CrashStore: the deterministic power-cut harness. It decorates a full
// bucket with a write budget — after N successful writes the "power
// goes out": the N+1th write fails, and every operation after it (reads
// included) fails too, exactly as a dead machine answers nothing. The
// crash-consistency suite runs a scripted workload once to count its
// writes, then replays it with the cut placed at every write boundary,
// recovering the underlying store each time and checking the
// repository's durability invariants.
//
// The fault model matches the storage layer's atomicity: Put, PutIf,
// and Delete are atomic (the cut drops them wholesale), while Append is
// the one tearable operation — in torn mode the cut lands mid-append
// and a prefix of the data reaches the store, which is precisely the
// debris the repository's CRC-framed session logs must detect and trim.
package faultnet

import (
	"errors"
	"sync"

	"repro/internal/storage"
)

// ErrPowerLost is returned by every operation at and after the cut.
var ErrPowerLost = errors.New("faultnet: power lost (injected)")

// FullStore is the complete bucket surface CrashStore decorates —
// structurally identical to the repository's Store dependency, so a
// CrashStore can stand in for a bucket anywhere the repository stack
// writes.
type FullStore interface {
	Get(name string) (*storage.Object, error)
	Put(name string, data []byte) (*storage.Object, error)
	PutIf(name string, data []byte, gen int64) (*storage.Object, error)
	Append(name string, data []byte) (*storage.Object, error)
	Delete(name string) error
	Exists(name string) bool
	List(prefix string) []string
}

// CrashStore wraps a store with a scripted power cut.
type CrashStore struct {
	inner FullStore

	mu     sync.Mutex
	armed  bool
	budget int  // successful writes allowed before the cut
	tear   bool // tear the cut Append (prefix lands) instead of dropping it
	dead   bool
	writes int
}

// NewCrashStore wraps inner with no cut scheduled; every operation
// passes through until CrashAfterWrites arms one.
func NewCrashStore(inner FullStore) *CrashStore {
	return &CrashStore{inner: inner}
}

// CrashAfterWrites schedules the cut: the first n write operations
// (Put, PutIf, Append, Delete) succeed, the n+1th dies with
// ErrPowerLost, and the store is dead from then on. With tear set, a
// cut landing on an Append first leaks a prefix of the data into the
// store — the torn final write.
func (c *CrashStore) CrashAfterWrites(n int, tear bool) {
	c.mu.Lock()
	c.armed = true
	c.budget = n
	c.tear = tear
	c.mu.Unlock()
}

// Writes reports how many write operations were attempted, including
// the one the cut killed. A dry run with no cut armed measures a
// workload's write budget.
func (c *CrashStore) Writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// Dead reports whether the cut has happened.
func (c *CrashStore) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// writeGate accounts one write attempt and decides its fate.
func (c *CrashStore) writeGate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return ErrPowerLost
	}
	c.writes++
	if c.armed && c.writes > c.budget {
		c.dead = true
		return ErrPowerLost
	}
	return nil
}

func (c *CrashStore) Put(name string, data []byte) (*storage.Object, error) {
	if err := c.writeGate(); err != nil {
		return nil, err
	}
	return c.inner.Put(name, data)
}

func (c *CrashStore) PutIf(name string, data []byte, gen int64) (*storage.Object, error) {
	if err := c.writeGate(); err != nil {
		return nil, err
	}
	return c.inner.PutIf(name, data, gen)
}

func (c *CrashStore) Delete(name string) error {
	if err := c.writeGate(); err != nil {
		return err
	}
	return c.inner.Delete(name)
}

// Append is the tearable write: when the cut lands here in torn mode,
// a strict prefix of data reaches the store before the failure.
func (c *CrashStore) Append(name string, data []byte) (*storage.Object, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, ErrPowerLost
	}
	c.writes++
	if c.armed && c.writes > c.budget {
		c.dead = true
		tear := c.tear
		c.mu.Unlock()
		if tear && len(data) > 1 {
			_, _ = c.inner.Append(name, data[:len(data)/2])
		}
		return nil, ErrPowerLost
	}
	c.mu.Unlock()
	return c.inner.Append(name, data)
}

func (c *CrashStore) Get(name string) (*storage.Object, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return nil, ErrPowerLost
	}
	return c.inner.Get(name)
}

func (c *CrashStore) Exists(name string) bool {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return false
	}
	return c.inner.Exists(name)
}

func (c *CrashStore) List(prefix string) []string {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return nil
	}
	return c.inner.List(prefix)
}
