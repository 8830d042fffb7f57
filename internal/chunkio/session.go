// Package chunkio is S/C's compressed-output subsystem: it lets the join
// kernel (internal/kernels.HashJoinScan, the one operator that emits
// chunks) produce encoding.Compressed output without materializing rows, so
// a join tree's intermediates stay in code space end to end instead of
// becoming a full table between every pair of operators.
//
// Two pieces cooperate:
//
//   - Builder assembles a compressed table from what the join has in hand
//     per output column — dictionary codes (the source chunk's dictionary
//     is remapped once through a shared dictionary and the surviving codes
//     flow through unchanged) or, when no code-space path applies, a typed
//     vector of materialized values, appended in bulk and re-encoded with
//     the same per-chunk codec auto-selection FromTable uses;
//   - Session carries the shared dictionaries across refresh runs, keyed
//     by (producer, column): a recurring pipeline re-derives the same
//     category dictionaries every night, and reusing yesterday's entries
//     turns tonight's dictionary build into pure id lookups.
//
// Decoding a Builder output always yields exactly the rows that were
// appended, in order — byte-identical to the table the materializing path
// would have produced.
package chunkio

import (
	"sync"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// DefaultMaxEntries caps a shared dictionary's cardinality. A column whose
// distinct-value count outgrows the cap stops being dictionary material —
// per-chunk codec auto-selection would not pick dict for it either — so the
// Builder falls back to value-space re-encoding instead of growing an
// unbounded session-lifetime map.
const DefaultMaxEntries = 1 << 16

// Session is the cross-run state of the compressed intermediate pipeline:
// one shared dictionary per (producer, column). It is safe for concurrent
// use by the Controller's worker pool — distinct nodes use distinct
// dictionaries, and each dictionary serializes its own access.
//
// Invalidation: a dictionary is discarded when its column's name or type
// changes (schema drift across runs); entries otherwise only accumulate,
// bounded by MaxEntries per column.
type Session struct {
	// MaxEntries caps each shared dictionary's cardinality; zero means
	// DefaultMaxEntries.
	MaxEntries int

	mu    sync.Mutex
	run   uint64
	dicts map[dictKey]*Shared
}

type dictKey struct {
	producer string
	col      int
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{dicts: make(map[dictKey]*Shared)}
}

// BeginRun marks the start of one refresh run. Dictionary entries present
// before this point are "yesterday's": chunks served entirely from them
// count as dictionary reuse (Counters.DictReused).
func (s *Session) BeginRun() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.run++
	s.mu.Unlock()
}

// Len reports the number of cached dictionaries (tests, stats).
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dicts)
}

// shared returns the session dictionary for one producer column, creating
// or invalidating as needed.
func (s *Session) shared(producer string, ci int, col table.Column, maxEntries int) *Shared {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := dictKey{producer: producer, col: ci}
	sh := s.dicts[key]
	if sh == nil || sh.typ != col.Type || sh.colName != col.Name {
		sh = newShared(col.Type, col.Name, maxEntries)
		s.dicts[key] = sh
	}
	sh.attach(s.run)
	return sh
}

// Shared is a growing dictionary of column values shared across chunks and
// across runs. Ids are dense, assigned in insertion order. It holds INT or
// STRING values — the types the dict codec encodes.
type Shared struct {
	mu      sync.Mutex
	typ     table.Type
	colName string
	max     int
	ints    map[int64]int32
	strs    map[string]int32
	entsI   []int64
	entsS   []string
	// base is the entry count when the current run attached: ids below it
	// predate this run, so a chunk using only those ids was served entirely
	// by the cache.
	base int
	run  uint64
}

func newShared(t table.Type, name string, max int) *Shared {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	sh := &Shared{typ: t, colName: name, max: max}
	if t == table.Int {
		sh.ints = make(map[int64]int32)
	} else {
		sh.strs = make(map[string]int32)
	}
	return sh
}

// NewShared returns a standalone dictionary (no session), used by builders
// running without cross-run state. max <= 0 means DefaultMaxEntries.
func NewShared(t table.Type, max int) *Shared {
	return newShared(t, "", max)
}

// attach snapshots the reuse baseline once per run.
func (sh *Shared) attach(run uint64) {
	sh.mu.Lock()
	if sh.run != run {
		sh.run = run
		sh.base = sh.len()
	}
	sh.mu.Unlock()
}

func (sh *Shared) len() int {
	if sh.typ == table.Int {
		return len(sh.entsI)
	}
	return len(sh.entsS)
}

// Len returns the number of distinct values interned.
func (sh *Shared) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.len()
}

// Base returns the reuse baseline: ids below it predate the current run.
func (sh *Shared) Base() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.base
}

// addIntLocked interns one int value; ok is false on overflow.
func (sh *Shared) addIntLocked(x int64) (int32, bool) {
	if id, ok := sh.ints[x]; ok {
		return id, true
	}
	if len(sh.entsI) >= sh.max {
		return 0, false
	}
	id := int32(len(sh.entsI))
	sh.ints[x] = id
	sh.entsI = append(sh.entsI, x)
	return id, true
}

// addStrLocked interns one string value; ok is false on overflow.
func (sh *Shared) addStrLocked(s string) (int32, bool) {
	if id, ok := sh.strs[s]; ok {
		return id, true
	}
	if len(sh.entsS) >= sh.max {
		return 0, false
	}
	id := int32(len(sh.entsS))
	sh.strs[s] = id
	sh.entsS = append(sh.entsS, s)
	return id, true
}

// intern interns the values of vec in order under one lock, appending each
// id to the column's pending codes and memoizing its size. It stops at the
// first value the full dictionary cannot take (overflow) and returns that
// value's index, or vec.Len() when every value interned.
func (sh *Shared) intern(vec *table.Vector, cb *colBuf) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.typ == table.Int {
		for i, x := range vec.Ints {
			id, ok := sh.addIntLocked(x)
			if !ok {
				return i
			}
			cb.codes = append(cb.codes, id)
			cb.noteSize(id, 8)
		}
		return len(vec.Ints)
	}
	for i, s := range vec.Strs {
		id, ok := sh.addStrLocked(s)
		if !ok {
			return i
		}
		cb.codes = append(cb.codes, id)
		cb.noteSize(id, int64(len(s))+16)
	}
	return len(vec.Strs)
}

// Value returns the entry for a shared id.
func (sh *Shared) Value(id int32) table.Value {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.typ == table.Int {
		return table.IntValue(sh.entsI[id])
	}
	return table.StrValue(sh.entsS[id])
}

// valueSize returns the raw in-memory footprint of one entry, matching
// table.Vector.ByteSize accounting.
func (sh *Shared) valueSize(id int32) int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.typ == table.Int {
		return 8
	}
	return int64(len(sh.entsS[id])) + 16
}

// remapDict interns every entry of a source chunk's dictionary, returning
// the shared id per local code — the KeyDict-style translation that lets
// gathered codes pass through unchanged. ok is false on overflow (entries
// interned before the overflow remain; they are harmless).
func (sh *Shared) remapDict(dv *encoding.DictView) ([]int32, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]int32, dv.Card())
	if sh.typ == table.Int {
		for c, x := range dv.Ints {
			id, ok := sh.addIntLocked(x)
			if !ok {
				return nil, false
			}
			out[c] = id
		}
	} else {
		for c, s := range dv.Strs {
			id, ok := sh.addStrLocked(s)
			if !ok {
				return nil, false
			}
			out[c] = id
		}
	}
	return out, true
}

// dense translates pending shared ids into a dense chunk-local dictionary
// in first-use order — exactly the layout dictCodec.Encode would have built
// from the values, produced without touching a value. scratch is a caller-
// owned grow-only remap buffer. maxUsed is the largest shared id seen, the
// reuse test against Base.
func (sh *Shared) dense(codes []int32, scratch *[]int32) (ints []int64, strs []string, out []uint64, maxUsed int32) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	maxUsed = -1
	for _, id := range codes {
		if id > maxUsed {
			maxUsed = id
		}
	}
	need := int(maxUsed) + 1
	if cap(*scratch) < need {
		*scratch = make([]int32, need)
	}
	remap := (*scratch)[:need]
	for i := range remap {
		remap[i] = -1
	}
	out = make([]uint64, len(codes))
	for k, id := range codes {
		local := remap[id]
		if local < 0 {
			if sh.typ == table.Int {
				local = int32(len(ints))
				ints = append(ints, sh.entsI[id])
			} else {
				local = int32(len(strs))
				strs = append(strs, sh.entsS[id])
			}
			remap[id] = local
		}
		out[k] = uint64(local)
	}
	return ints, strs, out, maxUsed
}
