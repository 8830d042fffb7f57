// Package memcat implements S/C's Memory Catalog (§III-C): a bounded
// in-memory table store. Flagged node outputs are created directly here so
// downstream nodes read them at memory speed, and are freed as soon as all
// dependents have executed and background materialization has finished.
//
// The catalog is a bounded map of entries, and GetEntry is its one lookup:
// it hands out the entry as it was put and decodes nothing. Entries come in
// three forms. A plain table (Plain) is its rows. A serialized table
// (SerializedEntry) is the v1 bytes its node writes to storage, shared with
// that write and accounted at len(Data), so an output whose rows exceed the
// budget can still stay resident. A compressed columnar table
// (encoding.Compressed) is its chunks, accounted at its compressed
// footprint. What a reader does with the form it gets — read the rows, decode
// the bytes, scan the chunks — is the reader's business (internal/exec opens
// each input of a node once). The catalog holds entries and nothing else,
// so Peak() <= capacity is all the memory it ever owns. A Pool counts the
// bytes its attached catalogs hold; it reserves nothing.
package memcat

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// ErrNoSpace reports that an insert would exceed the catalog capacity.
var ErrNoSpace = errors.New("memcat: insufficient space")

// ErrNotFound reports a missing table.
var ErrNotFound = errors.New("memcat: table not found")

// Entry is anything the catalog can hold: it knows its accounted byte
// size and can produce the table it represents. Plain tables return
// themselves; serialized and compressed entries decode on every call.
type Entry interface {
	// SizeBytes is the in-memory footprint accounted against the budget.
	SizeBytes() int64
	// Table materializes the entry as a plain table.
	Table() (*table.Table, error)
}

// plainEntry wraps an uncompressed table.
type plainEntry struct{ t *table.Table }

func (e plainEntry) SizeBytes() int64             { return e.t.ByteSize() }
func (e plainEntry) Table() (*table.Table, error) { return e.t, nil }

// SerializedEntry holds a table as the bytes colfmt.Encode produced for it,
// which the entry shares with its writer (neither side may modify them).
type SerializedEntry struct {
	Data     []byte
	RawBytes int64 // the size of the table Data decodes to, for reports
}

func (e SerializedEntry) SizeBytes() int64             { return int64(len(e.Data)) }
func (e SerializedEntry) Table() (*table.Table, error) { return colfmt.Decode(e.Data) }

// Catalog is a bounded, thread-safe in-memory table store.
type Catalog struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
	entries  map[string]*entryT

	// pool, when non-nil, is the shared budget this catalog's entry bytes
	// are additionally accounted against (see Pool). Guarded by mu.
	pool *Pool
}

type entryT struct {
	e    Entry
	size int64 // e.SizeBytes() captured at Put, so accounting never drifts
	// lastAccess is when a reader last touched the entry (Put counts),
	// feeding the inspector's last-access age. Guarded by the catalog mu.
	lastAccess time.Time
}

// EntryInfo is a point-in-time view of one resident entry for the
// introspection layer: its form, accounted vs raw bytes, the per-codec chunk
// mix of compressed entries and last access.
type EntryInfo struct {
	Name        string           `json:"name"`
	Form        string           `json:"form"`       // FormRows, FormSerialized or FormCompressed
	SizeBytes   int64            `json:"size_bytes"` // accounted (serialized or compressed) footprint
	Compressed  bool             `json:"compressed"`
	RawBytes    int64            `json:"raw_bytes,omitempty"` // uncompressed footprint when known
	Rows        int              `json:"rows,omitempty"`
	Chunks      int              `json:"chunks,omitempty"`
	CodecChunks map[string]int   `json:"codec_chunks,omitempty"`
	CodecBytes  map[string]int64 `json:"codec_bytes,omitempty"` // encoded payload bytes per codec
	LastAccess  time.Time        `json:"last_access"`
}

// The forms an entry is resident in, as EntryInfo and the event stream
// report them.
const (
	FormRows       = "rows"
	FormSerialized = "serialized"
	FormCompressed = "compressed"
)

// FormOf names the form of an entry.
func FormOf(e Entry) string {
	switch e.(type) {
	case SerializedEntry:
		return FormSerialized
	case *encoding.Compressed:
		return FormCompressed
	}
	return FormRows
}

// New returns a catalog with the given byte capacity.
func New(capacity int64) *Catalog {
	if capacity < 0 {
		capacity = 0
	}
	return &Catalog{capacity: capacity, entries: make(map[string]*entryT)}
}

// Capacity returns the configured byte capacity.
func (c *Catalog) Capacity() int64 { return c.capacity }

// Put stores t under name, accounting its byte size against the capacity.
// It fails with ErrNoSpace if the table does not fit, leaving the catalog
// unchanged. Re-putting an existing name replaces it.
func (c *Catalog) Put(name string, t *table.Table) error {
	return c.PutEntry(name, Plain(t))
}

// Plain is the Entry of an uncompressed table, for PutEntry callers that
// choose between the two forms.
func Plain(t *table.Table) Entry { return plainEntry{t: t} }

// PutEntry stores any Entry (plain, serialized or compressed) under name,
// accounting e.SizeBytes() against the capacity. Serialized and compressed
// entries therefore charge only their encoded footprint. Semantics match Put.
func (c *Catalog) PutEntry(name string, e Entry) error {
	size := e.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	var old int64
	if prev, ok := c.entries[name]; ok {
		old = prev.size
	}
	if c.used-old+size > c.capacity {
		return fmt.Errorf("%w: %s needs %d bytes, %d free of %d",
			ErrNoSpace, name, size, c.capacity-(c.used-old), c.capacity)
	}
	c.entries[name] = &entryT{e: e, size: size, lastAccess: time.Now()}
	c.used += size - old
	if c.used > c.peak {
		c.peak = c.used
	}
	if c.pool != nil {
		c.pool.charge(size - old)
	}
	return nil
}

// Get returns the named table if resident, decoding a non-plain entry. A
// decode failure reads as absent.
func (c *Catalog) Get(name string) (*table.Table, bool) {
	e, ok := c.GetEntry(name)
	if !ok {
		return nil, false
	}
	t, err := e.Table()
	return t, err == nil
}

// GetEntry returns the named entry as it was put, decoding nothing, and
// marks it accessed.
func (c *Catalog) GetEntry(name string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, false
	}
	e.lastAccess = time.Now()
	return e.e, true
}

// Delete frees the named table.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	c.used -= e.size
	delete(c.entries, name)
	if c.pool != nil {
		c.pool.charge(-e.size)
	}
	return nil
}

// Entries snapshots every resident entry for the introspection layer,
// sorted by name. Serialized entries report the size of the table they hold,
// compressed entries also their row count and codec mix (chunk counts and
// encoded payload bytes per codec), without decoding anything.
func (c *Catalog) Entries() []EntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, len(c.entries))
	for name, e := range c.entries {
		info := EntryInfo{
			Name:       name,
			Form:       FormOf(e.e),
			SizeBytes:  e.size,
			LastAccess: e.lastAccess,
		}
		if se, ok := e.e.(SerializedEntry); ok {
			info.RawBytes = se.RawBytes
		}
		if ct, ok := e.e.(*encoding.Compressed); ok {
			info.Compressed = true
			info.RawBytes = ct.RawBytes
			info.Rows = ct.NRows
			info.CodecChunks = make(map[string]int)
			info.CodecBytes = make(map[string]int64)
			for _, col := range ct.Cols {
				for _, ch := range col {
					codec := ch.Codec.String()
					info.Chunks++
					info.CodecChunks[codec]++
					info.CodecBytes[codec] += int64(len(ch.Data))
				}
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Detach credits any bytes the catalog still holds back to its pool and
// disconnects it; later catalog mutations no longer touch the pool. It
// returns the bytes credited back — zero for a run whose release protocol
// (or the controller's cancellation sweep) freed every entry, which is the
// expected case; a non-zero return is a leak a long-lived server would
// otherwise carry forever. Detaching a pool-less catalog returns 0.
func (c *Catalog) Detach() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool == nil {
		return 0
	}
	left := c.used
	if left > 0 {
		c.pool.charge(-left)
	}
	c.pool = nil
	return left
}

// Size returns the accounted bytes of the named entry, or ErrNotFound.
func (c *Catalog) Size(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return e.size, nil
}

// Used returns the currently accounted bytes.
func (c *Catalog) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Peak returns the high-water mark of accounted bytes.
func (c *Catalog) Peak() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Names lists resident tables, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
