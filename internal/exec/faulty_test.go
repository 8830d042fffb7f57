package exec

import (
	"errors"
	"fmt"
	"sync"

	"github.com/shortcircuit-db/sc/internal/storage"
)

// errInjected marks failures produced by the faulty wrapper.
var errInjected = errors.New("storage: injected fault")

// faulty wraps a Store and fails operations on demand, for failure-
// injection tests of the controller's error paths (background
// materialization failures, partial refresh runs).
type faulty struct {
	Inner storage.Store

	mu         sync.Mutex
	failReads  map[string]bool // object names whose Read fails
	failWrites map[string]bool // object names whose Write fails
	writeCount int
	// FailWriteAfter, when > 0, fails every write after the first N.
	FailWriteAfter int
}

// newFaulty wraps inner with no faults armed.
func newFaulty(inner storage.Store) *faulty {
	return &faulty{
		Inner:      inner,
		failReads:  make(map[string]bool),
		failWrites: make(map[string]bool),
	}
}

// FailRead arms a read fault for the named object.
func (f *faulty) FailRead(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failReads[name] = true
}

// FailWrite arms a write fault for the named object.
func (f *faulty) FailWrite(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrites[name] = true
}

// Write implements storage.Store.
func (f *faulty) Write(name string, data []byte) error {
	f.mu.Lock()
	f.writeCount++
	fail := f.failWrites[name] || (f.FailWriteAfter > 0 && f.writeCount > f.FailWriteAfter)
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: write %s", errInjected, name)
	}
	return f.Inner.Write(name, data)
}

// Read implements storage.Store.
func (f *faulty) Read(name string) ([]byte, error) {
	f.mu.Lock()
	fail := f.failReads[name]
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("%w: read %s", errInjected, name)
	}
	return f.Inner.Read(name)
}

// Delete implements storage.Store.
func (f *faulty) Delete(name string) error { return f.Inner.Delete(name) }

// Size implements storage.Store.
func (f *faulty) Size(name string) (int64, error) { return f.Inner.Size(name) }

// List implements storage.Store.
func (f *faulty) List() ([]string, error) { return f.Inner.List() }
