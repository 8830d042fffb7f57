package gateway

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/leakcheck"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// books reads the admitter's books: reserved bytes, their high-water mark
// and committed tokens.
func (a *admitter) books() (reserved, peak int64, committed int) {
	st := a.snapshot()
	return st.reserved, st.peakReserved, st.committed
}

// admitModel is the reference the admitter is checked against: a FIFO
// queue, one run per pipeline, tenant slices, and global bytes and tokens
// kept as plain sums of what is admitted and not yet finished.
type admitModel struct {
	capacity int64
	tokens   int
	maxQueue int
	slices   map[string]int64

	queue     []*ticket
	running   []*ticket // admitted, not yet finished
	blocked   map[*ticket]string
	reserved  int64
	peak      int64
	committed int
	tenantRes map[string]int64

	admitted, enqueued, rejected, expired int64
	startedLog, expiredLog                []*ticket
}

func (m *admitModel) busy(pipeline string) bool {
	return slices.ContainsFunc(m.running, func(t *ticket) bool { return t.pipeline == pipeline })
}

// pump admits from the head while the head fits, dropping expired heads,
// and records why the head it stops at waits.
func (m *admitModel) pump(now time.Time) {
	for len(m.queue) > 0 {
		head := m.queue[0]
		if !head.deadline.IsZero() && now.After(head.deadline) {
			m.queue = m.queue[1:]
			m.expired++
			m.expiredLog = append(m.expiredLog, head)
			continue
		}
		switch {
		case m.busy(head.pipeline):
			m.blocked[head] = "pipeline-busy"
		case m.tenantRes[head.tenant]+head.need > m.slices[head.tenant]:
			m.blocked[head] = "tenant-slice"
		case m.reserved+head.need > m.capacity:
			m.blocked[head] = "catalog-bytes"
		case m.tokens > 0 && m.committed+head.tokens > m.tokens:
			m.blocked[head] = "sched-tokens"
		default:
			m.queue = m.queue[1:]
			m.running = append(m.running, head)
			m.reserved += head.need
			m.peak = max(m.peak, m.reserved)
			m.committed += head.tokens
			m.tenantRes[head.tenant] += head.need
			m.admitted++
			m.startedLog = append(m.startedLog, head)
			continue
		}
		return
	}
}

func (m *admitModel) finish(t *ticket, now time.Time) {
	m.running = slices.DeleteFunc(m.running, func(r *ticket) bool { return r == t })
	m.reserved -= t.need
	m.committed -= t.tokens
	m.tenantRes[t.tenant] -= t.need
	m.pump(now)
}

// check compares the admitter with the model and asserts the invariants of
// admission: the books never exceed their bounds, every ticket is where the
// model has it, and an idle admitter holds nothing.
func (m *admitModel) check(t *testing.T, step int, op string, a *admitter, log *ticketLog) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
	}
	reserved, peak, committed := a.books()
	if reserved > m.capacity {
		fail("reserved %d exceeds capacity %d", reserved, m.capacity)
	}
	if peak > m.capacity || peak != m.peak {
		fail("peak reserved %d, model %d (capacity %d)", peak, m.peak, m.capacity)
	}
	if m.tokens > 0 && committed > m.tokens {
		fail("committed %d exceeds %d tokens", committed, m.tokens)
	}
	if reserved != m.reserved || committed != m.committed {
		fail("books read %d B / %d tokens, model %d B / %d tokens", reserved, committed, m.reserved, m.committed)
	}
	if len(m.queue) == 0 && len(m.running) == 0 && (reserved != 0 || committed != 0) {
		fail("idle admitter holds %d B and %d tokens", reserved, committed)
	}
	adm := a.snapshot()
	for name, slice := range m.slices {
		tb := adm.tenants[name]
		if tb.reserved > slice || tb.reserved != m.tenantRes[name] {
			fail("tenant %s reserved %d (slice %d), model %d", name, tb.reserved, slice, m.tenantRes[name])
		}
	}
	if adm.admitted != m.admitted || adm.enqueued != m.enqueued || adm.rejected != m.rejected || adm.expired != m.expired {
		fail("counters admitted/enqueued/rejected/expired = %d/%d/%d/%d, model %d/%d/%d/%d",
			adm.admitted, adm.enqueued, adm.rejected, adm.expired, m.admitted, m.enqueued, m.rejected, m.expired)
	}
	a.mu.Lock()
	queue := slices.Clone(a.queue)
	busy := len(a.busy)
	var reasons []string
	for _, tk := range queue {
		reasons = append(reasons, tk.blocked)
	}
	a.mu.Unlock()
	if !slices.Equal(queue, m.queue) {
		fail("queue %s, model %s", log.names(queue), log.names(m.queue))
	}
	for i, tk := range queue {
		if reasons[i] != m.blocked[tk] {
			fail("%s blocked on %q, model %q", log.name[tk], reasons[i], m.blocked[tk])
		}
	}
	if busy != len(m.running) {
		fail("%d busy pipelines, model runs %s", busy, log.names(m.running))
	}
	if !slices.Equal(log.started, m.startedLog) {
		fail("started %s, model %s", log.names(log.started), log.names(m.startedLog))
	}
	if !slices.Equal(log.expired, m.expiredLog) {
		fail("expired %s, model %s", log.names(log.expired), log.names(m.expiredLog))
	}
}

// ticketLog records the admitter's callbacks, in the order it makes them,
// and names tickets for failure messages.
type ticketLog struct {
	started, expired []*ticket
	name             map[*ticket]string
}

func (l *ticketLog) names(ts []*ticket) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = l.name[t]
	}
	return out
}

func (l *ticketLog) ticket(label, tenant, pipeline string, need int64, tokens int, deadline time.Time) *ticket {
	tk := &ticket{
		tenant: tenant, pipeline: pipeline, need: need, tokens: tokens, deadline: deadline,
		start:  func(tk *ticket) { l.started = append(l.started, tk) },
		expire: func(tk *ticket) { l.expired = append(l.expired, tk) },
	}
	l.name[tk] = label
	return tk
}

// admitScript drives one admitter by hand: submit checks whether a ticket
// is admitted at once, want checks the books.
type admitScript struct {
	t   *testing.T
	adm *admitter
	lg  *ticketLog
}

func newAdmitScript(t *testing.T, capacity int64, tokens int) *admitScript {
	adm := newAdmitter(capacity, tokens, 8, newFakeClock().now)
	adm.addTenant("t", capacity)
	adm.addTenant("u", capacity)
	return &admitScript{t: t, adm: adm, lg: &ticketLog{name: map[*ticket]string{}}}
}

func (s *admitScript) submit(label, tenant string, need int64, tokens int, wantNow bool) *ticket {
	s.t.Helper()
	tk := s.lg.ticket(label, tenant, "p"+label, need, tokens, time.Time{})
	if now, err := s.adm.submit(tk); err != nil || now != wantNow {
		s.t.Fatalf("submit %s: admitted now %v, err %v; want %v", label, now, err, wantNow)
	}
	return tk
}

func (s *admitScript) want(step string, wantRes, wantPeak int64, wantCommitted int) {
	s.t.Helper()
	if res, peak, committed := s.adm.books(); res != wantRes || peak != wantPeak || committed != wantCommitted {
		s.t.Fatalf("%s: reserved %d, peak %d, committed %d; want %d, %d, %d",
			step, res, peak, committed, wantRes, wantPeak, wantCommitted)
	}
}

// TestAdmissionModelReserveRelease pins the byte books: an exact fit
// admits, one byte over queues and holds nothing, the peak stays at the
// high-water mark, finishing hands back exactly what was taken, and a
// zero-byte ticket always fits.
func TestAdmissionModelReserveRelease(t *testing.T) {
	s := newAdmitScript(t, 100, 0)
	a := s.submit("a", "t", 60, 0, true)
	b := s.submit("b", "t", 40, 0, true) // 60+40 fits exactly
	s.want("a+b", 100, 100, 0)
	c := s.submit("c", "u", 1, 0, false) // its own tenant: only the global bytes bind
	if c.blocked != "catalog-bytes" {
		t.Fatalf("c blocked on %q, want catalog-bytes", c.blocked)
	}
	s.want("c waits", 100, 100, 0)
	s.adm.finish(a)
	s.want("finish a admits c", 41, 100, 0)
	d := s.submit("d", "u", 50, 0, true)
	z := s.submit("z", "u", 0, 0, true)
	s.want("d and z", 91, 100, 0)
	for _, tk := range []*ticket{b, c, d, z} {
		s.adm.finish(tk)
	}
	s.want("idle", 0, 100, 0)
	if !slices.Equal(s.lg.started, []*ticket{a, b, c, d, z}) {
		t.Fatalf("started %v", s.lg.names(s.lg.started))
	}
}

// TestAdmissionModelCommitLedger pins the token books: 3+1 tokens fit 4
// exactly, 2 more queue and commit nothing, finishing hands back exactly
// what was committed, and the ledger returns to 0. A ticket waiting on
// tokens holds none of its bytes.
func TestAdmissionModelCommitLedger(t *testing.T) {
	s := newAdmitScript(t, 100, 4)
	a := s.submit("a", "t", 10, 3, true)
	c := s.submit("c", "t", 10, 1, true) // 3+1 fits 4 exactly
	s.want("a+c", 20, 20, 4)
	b := s.submit("b", "t", 10, 2, false) // 4+2 exceeds 4
	if b.blocked != "sched-tokens" {
		t.Fatalf("b blocked on %q, want sched-tokens", b.blocked)
	}
	s.want("b waits on tokens", 20, 20, 4)
	s.adm.finish(a)
	s.want("finish a admits b", 20, 20, 3)
	s.adm.finish(c)
	s.adm.finish(b)
	s.want("idle", 0, 20, 0)
	z := s.submit("z", "t", 0, 4, true) // the full pool commits again once free
	s.want("recommit", 0, 20, 4)
	s.adm.finish(z)
	s.want("idle again", 0, 20, 0)
	if !slices.Equal(s.lg.started, []*ticket{a, c, b, z}) {
		t.Fatalf("started %v", s.lg.names(s.lg.started))
	}
}

// TestAdmissionModel drives the admitter through seeded random walks of
// submit / finish / cancel / reap, with the clock moved past queue
// deadlines, and after every step compares it with admitModel: the same
// tickets admitted, queued and expired in the same order with the same
// blocking reasons, the same reserved bytes, committed tokens and tenant
// holds, none above its bound, and nothing held once nothing is queued or
// admitted.
func TestAdmissionModel(t *testing.T) {
	tenants := []string{"a", "b"}
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5c))
			clock := newFakeClock()
			m := &admitModel{
				capacity:  1000,
				tokens:    int(seed % 5), // 0 runs without token gating
				maxQueue:  1 + rng.IntN(6),
				slices:    map[string]int64{"a": 600, "b": 1000},
				blocked:   map[*ticket]string{},
				tenantRes: map[string]int64{},
			}
			a := newAdmitter(m.capacity, m.tokens, m.maxQueue, clock.now)
			for _, name := range tenants {
				a.addTenant(name, m.slices[name])
			}
			lg := &ticketLog{name: map[*ticket]string{}}
			var submitted []*ticket
			for step := 0; step < 400; step++ {
				var op string
				switch r := rng.IntN(100); {
				case r < 40:
					tenant := tenants[rng.IntN(len(tenants))]
					pipeline := fmt.Sprintf("%s/p%d", tenant, rng.IntN(3))
					need := rng.Int64N(m.slices[tenant] + 1)
					if rng.IntN(8) == 0 {
						need = m.slices[tenant]
					}
					var deadline time.Time
					if rng.IntN(3) > 0 {
						deadline = clock.now().Add(time.Duration(1+rng.IntN(10)) * time.Second)
					}
					tokens := rng.IntN(m.tokens + 1)
					tk := lg.ticket(fmt.Sprintf("#%d:%s:%dB:%dtok", step, pipeline, need, tokens), tenant, pipeline, need, tokens, deadline)
					op = "submit " + lg.name[tk]
					before := len(m.startedLog)
					full := len(m.queue) >= m.maxQueue
					if full {
						m.rejected++
					} else {
						m.queue = append(m.queue, tk)
						m.enqueued++
						m.pump(clock.now())
						submitted = append(submitted, tk)
					}
					now, err := a.submit(tk)
					if full != errors.Is(err, ErrQueueFull) || (!full && err != nil) {
						t.Fatalf("step %d (%s): err %v, queue full %v", step, op, err, full)
					}
					if wantNow := slices.Contains(m.startedLog[before:], tk); now != wantNow {
						t.Fatalf("step %d (%s): admitted now %v, model %v", step, op, now, wantNow)
					}
				case r < 65:
					if len(m.running) == 0 {
						continue
					}
					tk := m.running[rng.IntN(len(m.running))]
					op = "finish " + lg.name[tk]
					m.finish(tk, clock.now())
					a.finish(tk)
				case r < 80:
					if len(submitted) == 0 {
						continue
					}
					// Any ticket: canceling one no longer queued changes nothing.
					tk := submitted[rng.IntN(len(submitted))]
					op = "cancel " + lg.name[tk]
					m.queue = slices.DeleteFunc(m.queue, func(q *ticket) bool { return q == tk })
					a.cancel(tk)
				default:
					d := time.Duration(rng.IntN(6000)) * time.Millisecond
					op = "reap after " + d.String()
					clock.advance(d)
					m.pump(clock.now())
					a.reap()
				}
				m.check(t, step, op, a, lg)
			}
		})
	}
}

// TestAdmissionModelOverCreditPanics: finishing a ticket twice would drive
// the books below zero, which only a bug can do, so it panics.
func TestAdmissionModelOverCreditPanics(t *testing.T) {
	a := newAdmitter(100, 4, 8, time.Now)
	a.addTenant("t", 100)
	tk := &ticket{tenant: "t", pipeline: "p", need: 10, tokens: 1}
	if now, err := a.submit(tk); err != nil || !now {
		t.Fatalf("submit: admitted now %v, err %v", now, err)
	}
	a.finish(tk)
	defer func() {
		if recover() == nil {
			t.Fatal("a second finish of one ticket did not panic")
		}
	}()
	a.finish(tk)
}

// TestAdmissionModelServerClose closes a server with one run held at a
// gated store write and more queued behind it, on a frozen clock: Close
// cancels the queued runs, the held run ends once the gate opens, and the
// server is left with no reserved bytes, no committed tokens, every
// runtime token idle and no goroutine behind.
func TestAdmissionModelServerClose(t *testing.T) {
	defer leakcheck.Check(t)
	clock := newFakeClock()
	gs := &gateStore{Store: storage.NewMemStore()}
	s, err := NewServer(Config{GlobalBudget: 1 << 20, Clock: clock.now, NewStore: func(string) storage.Store { return gs }})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ name, tenant string }{{"p", "t1"}, {"q", "t2"}} {
		if err := s.Register(PipelineSpec{
			Name: spec.name, Tenant: spec.tenant,
			MVs:    pipelineRequest("", "").MVs,
			Tables: map[string]*table.Table{"sales": mustTable(t, salesJSON())},
		}); err != nil {
			t.Fatal(err)
		}
	}
	gs.block()
	held, err := s.Trigger("p")
	if err != nil {
		t.Fatal(err)
	}
	<-gs.parked
	var runs []*Run
	for _, name := range []string{"p", "q", "p"} {
		r, err := s.Trigger(name)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	if st := held.Status().State; st != StateRunning {
		t.Fatalf("held run is %q, want running", st)
	}
	var queued []*Run
	for _, r := range runs {
		if r.Status().State == StateQueued {
			queued = append(queued, r)
		}
	}
	if len(queued) < 2 {
		t.Fatalf("%d of the triggers behind the held run queued, want at least the two of its pipeline", len(queued))
	}
	if st := s.Stats(); st.ReservedBytes <= 0 || st.SchedCommitted <= 0 || st.QueueDepth != len(queued) {
		t.Fatalf("before Close: %+v", st)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for _, r := range queued {
		<-r.Done()
		if st := r.Status().State; st != StateCanceled {
			t.Fatalf("queued run %s ended %q at Close, want canceled", r.ID(), st)
		}
	}
	gs.open()
	<-closed
	for _, r := range append(runs, held) {
		switch st := r.Status(); st.State {
		case StateQueued, StateRunning:
			t.Fatalf("run %s still %q after Close", r.ID(), st.State)
		}
	}
	st := s.Stats()
	if st.ReservedBytes != 0 || st.SchedCommitted != 0 || st.SchedIdle != st.SchedTokens || st.QueueDepth != 0 || st.UsedBytes != 0 {
		t.Fatalf("after Close: %d B reserved, %d tokens committed, %d of %d idle, queue %d, %d B used",
			st.ReservedBytes, st.SchedCommitted, st.SchedIdle, st.SchedTokens, st.QueueDepth, st.UsedBytes)
	}
	if st.PeakReserved > st.BudgetBytes {
		t.Fatalf("peak reserved %d exceeds the %d B budget", st.PeakReserved, st.BudgetBytes)
	}
}
