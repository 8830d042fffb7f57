package main

import (
	"sync"
	"sync/atomic"
	"time"

	sc "github.com/shortcircuit-db/sc"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the recorder was created; Parent is the index of
// the span that caused this one (-1 for a root); spans of one refresh share
// Run (-1 for layer replays, which belong to no refresh).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Run: run})
	return len(r.spans) - 1
}

// end closes a span; the id of a span that was never opened is ignored.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// time runs f inside a span and returns how long it took.
func (r *recorder) time(name string, parent, run int, f func() error) (time.Duration, error) {
	id := r.begin(name, parent, run)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.end(id)
	return d, err
}

// total sums the durations of the spans called name within one run.
func (r *recorder) total(name string, run int) (d time.Duration, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name && s.Run == run {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// meteredStore counts every byte and call crossing the storage boundary.
// The counts are exact and always on (storage_read_mb is an end-to-end
// metric); with a recorder attached and tracing switched on it also
// records one span per call, parented to the refresh in progress.
type meteredStore struct {
	inner sc.Store
	isMV  func(object string) bool

	readBytes, writeBytes, mvReadBytes atomic.Int64
	reads, writes                      atomic.Int64

	rec     *recorder
	tracing atomic.Bool
	parent  atomic.Int64 // span the calls belong to while tracing
	run     atomic.Int64
}

// counters is a snapshot of a meteredStore's counts.
type counters struct{ readBytes, writeBytes, mvReadBytes, reads, writes int64 }

func (m *meteredStore) snapshot() counters {
	return counters{
		m.readBytes.Load(), m.writeBytes.Load(), m.mvReadBytes.Load(),
		m.reads.Load(), m.writes.Load(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		c.readBytes - o.readBytes, c.writeBytes - o.writeBytes, c.mvReadBytes - o.mvReadBytes,
		c.reads - o.reads, c.writes - o.writes,
	}
}

// trace switches span recording on under the given parent span.
func (m *meteredStore) trace(parent, run int) {
	m.parent.Store(int64(parent))
	m.run.Store(int64(run))
	m.tracing.Store(true)
}

func (m *meteredStore) untrace() { m.tracing.Store(false) }

func (m *meteredStore) span(name string) int {
	if m.rec == nil || !m.tracing.Load() {
		return -1
	}
	return m.rec.begin(name, int(m.parent.Load()), int(m.run.Load()))
}

func (m *meteredStore) Write(name string, data []byte) error {
	id := m.span("storage.write")
	err := m.inner.Write(name, data)
	m.rec.end(id)
	m.writes.Add(1)
	m.writeBytes.Add(int64(len(data)))
	return err
}

func (m *meteredStore) Read(name string) ([]byte, error) {
	id := m.span("storage.read")
	data, err := m.inner.Read(name)
	m.rec.end(id)
	m.reads.Add(1)
	m.readBytes.Add(int64(len(data)))
	if m.isMV != nil && m.isMV(name) {
		m.mvReadBytes.Add(int64(len(data)))
	}
	return data, err
}

func (m *meteredStore) Delete(name string) error        { return m.inner.Delete(name) }
func (m *meteredStore) Size(name string) (int64, error) { return m.inner.Size(name) }
func (m *meteredStore) List() ([]string, error)         { return m.inner.List() }
