package gateway

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// fakeClock is a manually advanced clock for deadline tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// admitLog records callback order.
type admitLog struct {
	mu      sync.Mutex
	started []string
	expired []string
}

func (l *admitLog) startedNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.started...)
}

func (l *admitLog) expiredNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.expired...)
}

// admitStep is one scripted action against the admitter.
type admitStep struct {
	submit   string        // ticket label "tenant/pipeline#need[@deadline]" to submit
	tenant   string        //   submit fields
	pipeline string        //
	need     int64         //
	ttl      time.Duration //   0 = no deadline
	wantErr  error         //   expected submit error
	wantNow  bool          //   expect immediate admission

	finish string // label of an admitted ticket whose refresh completes

	advance time.Duration // move the fake clock, then reap
}

// TestAdmissionControl is the satellite table-driven admission test: a
// burst of M triggers over a B-byte budget admits at most what fits,
// queues the rest in submission order, and honors queue deadline expiry.
func TestAdmissionControl(t *testing.T) {
	cases := []struct {
		name        string
		budget      int64
		maxQueue    int
		slices      map[string]int64
		steps       []admitStep
		wantStarted []string
		wantExpired []string
		wantDepth   int
	}{
		{
			name:     "burst over budget admits at most budget then queues in order",
			budget:   1000,
			maxQueue: 16,
			slices:   map[string]int64{"a": 1000},
			steps: []admitStep{
				{submit: "p1", tenant: "a", pipeline: "p1", need: 400, wantNow: true},
				{submit: "p2", tenant: "a", pipeline: "p2", need: 400, wantNow: true},
				{submit: "p3", tenant: "a", pipeline: "p3", need: 400}, // 1200 > 1000: queues
				{submit: "p4", tenant: "a", pipeline: "p4", need: 100}, // would fit, but FIFO behind p3
				{finish: "p1"}, // frees 400: p3 then p4 admitted
			},
			wantStarted: []string{"p1", "p2", "p3", "p4"},
		},
		{
			name:     "tenant slice caps a noisy tenant",
			budget:   1000,
			maxQueue: 16,
			slices:   map[string]int64{"noisy": 300, "calm": 1000},
			steps: []admitStep{
				{submit: "n1", tenant: "noisy", pipeline: "n1", need: 300, wantNow: true},
				{submit: "n2", tenant: "noisy", pipeline: "n2", need: 300}, // slice full
				{submit: "c1", tenant: "calm", pipeline: "c1", need: 300},  // FIFO: behind n2
				{finish: "n1"},
			},
			wantStarted: []string{"n1", "n2", "c1"},
		},
		{
			name:     "one pipeline never runs two refreshes concurrently",
			budget:   1000,
			maxQueue: 16,
			slices:   map[string]int64{"a": 1000},
			steps: []admitStep{
				{submit: "p1", tenant: "a", pipeline: "p1", need: 100, wantNow: true},
				{submit: "p1-again", tenant: "a", pipeline: "p1", need: 100}, // busy: queues
				{finish: "p1"},
			},
			wantStarted: []string{"p1", "p1-again"},
		},
		{
			name:     "queue deadline expiry unblocks the tickets behind it",
			budget:   1000,
			maxQueue: 16,
			slices:   map[string]int64{"a": 1000},
			steps: []admitStep{
				{submit: "p1", tenant: "a", pipeline: "p1", need: 900, wantNow: true},
				{submit: "p2", tenant: "a", pipeline: "p2", need: 900, ttl: time.Second},
				{submit: "p3", tenant: "a", pipeline: "p3", need: 100, ttl: time.Hour},
				{advance: 2 * time.Second}, // p2 expires; p3 fits alongside p1
			},
			wantStarted: []string{"p1", "p3"},
			wantExpired: []string{"p2"},
		},
		{
			name:     "bounded queue rejects beyond capacity",
			budget:   100,
			maxQueue: 2,
			slices:   map[string]int64{"a": 100},
			steps: []admitStep{
				{submit: "p1", tenant: "a", pipeline: "p1", need: 100, wantNow: true},
				{submit: "p2", tenant: "a", pipeline: "p2", need: 100},
				{submit: "p3", tenant: "a", pipeline: "p3", need: 100},
				{submit: "p4", tenant: "a", pipeline: "p4", need: 100, wantErr: ErrQueueFull},
			},
			wantStarted: []string{"p1"},
			wantDepth:   2,
		},
		{
			name:     "zero-footprint triggers admit under a full pool",
			budget:   100,
			maxQueue: 16,
			slices:   map[string]int64{"a": 100},
			steps: []admitStep{
				{submit: "p1", tenant: "a", pipeline: "p1", need: 100, wantNow: true},
				{submit: "p2", tenant: "a", pipeline: "p2", need: 0, wantNow: true},
			},
			wantStarted: []string{"p1", "p2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			a := newAdmitter(tc.budget, 0, tc.maxQueue, clock.now)
			for tenant, slice := range tc.slices {
				a.addTenant(tenant, slice)
			}
			lg := &admitLog{}
			tickets := map[string]*ticket{}
			for i, step := range tc.steps {
				switch {
				case step.submit != "":
					label := step.submit
					tkt := &ticket{
						tenant:   step.tenant,
						pipeline: step.pipeline,
						need:     step.need,
						start: func(*ticket) {
							lg.mu.Lock()
							lg.started = append(lg.started, label)
							lg.mu.Unlock()
						},
						expire: func(*ticket) {
							lg.mu.Lock()
							lg.expired = append(lg.expired, label)
							lg.mu.Unlock()
						},
					}
					if step.ttl > 0 {
						tkt.deadline = clock.now().Add(step.ttl)
					}
					tickets[label] = tkt
					now, err := a.submit(tkt)
					if !errors.Is(err, step.wantErr) {
						t.Fatalf("step %d submit %s: err = %v, want %v", i, label, err, step.wantErr)
					}
					if now != step.wantNow {
						t.Fatalf("step %d submit %s: admittedNow = %v, want %v", i, label, now, step.wantNow)
					}
				case step.finish != "":
					a.finish(tickets[step.finish])
				case step.advance > 0:
					clock.advance(step.advance)
					a.reap()
				}
				if res, _, _ := a.books(); res > tc.budget {
					t.Fatalf("step %d: reserved %d exceeds budget %d", i, res, tc.budget)
				}
			}
			if got := lg.startedNames(); !equalStrings(got, tc.wantStarted) {
				t.Fatalf("started = %v, want %v", got, tc.wantStarted)
			}
			if got := lg.expiredNames(); !equalStrings(got, tc.wantExpired) {
				t.Fatalf("expired = %v, want %v", got, tc.wantExpired)
			}
			if got := len(a.snapshot().queue); got != tc.wantDepth {
				t.Fatalf("queue depth = %d, want %d", got, tc.wantDepth)
			}
			if _, pk, _ := a.books(); pk > tc.budget {
				t.Fatalf("peak reserved %d exceeds budget %d", pk, tc.budget)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAdmissionTokenGating pins the token side of admission: each admitted
// run commits its node-pool width, a run that doesn't fit queues with
// blocked_on = sched-tokens AND holds no bytes, and a finishing run's
// tokens let it through.
func TestAdmissionTokenGating(t *testing.T) {
	a := newAdmitter(1000, 4, 8, time.Now)
	a.addTenant("t", 1000)

	var mu sync.Mutex
	var started []string
	mk := func(name string) *ticket {
		tk := &ticket{tenant: "t", pipeline: name, need: 10, tokens: 2}
		tk.start = func(*ticket) {
			mu.Lock()
			started = append(started, name)
			mu.Unlock()
		}
		return tk
	}
	t1, t2, t3 := mk("p1"), mk("p2"), mk("p3")
	for i, tk := range []*ticket{t1, t2} {
		if now, err := a.submit(tk); err != nil || !now {
			t.Fatalf("submit %d: admittedNow=%v err=%v, want immediate", i, now, err)
		}
	}
	if _, _, got := a.books(); got != 4 {
		t.Fatalf("committed = %d, want 4", got)
	}
	// Tokens exhausted: p3 queues even though bytes and its tenant slice
	// would fit, and it must hold none of them.
	if now, err := a.submit(t3); err != nil || now {
		t.Fatalf("submit p3: admittedNow=%v err=%v, want queued", now, err)
	}
	if got, _, _ := a.books(); got != 20 {
		t.Fatalf("reserved = %d after token block, want 20 (p3 holds none)", got)
	}
	if got := t3.blocked; got != "sched-tokens" {
		t.Fatalf("blocked = %q, want sched-tokens", got)
	}
	a.finish(t1)
	if _, _, got := a.books(); got != 4 {
		t.Fatalf("committed = %d after finish+admit, want 4 (p2 + p3)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) != 3 || started[2] != "p3" {
		t.Fatalf("started = %v, want p1 p2 p3", started)
	}
}

// TestAdmissionConcurrentBurst hammers the admitter from many goroutines
// (run with -race): reservations never exceed the budget, and every
// submitted ticket eventually starts exactly once.
func TestAdmissionConcurrentBurst(t *testing.T) {
	const (
		budget  = 1000
		tickets = 64
	)
	a := newAdmitter(budget, 0, tickets, time.Now)
	a.addTenant("a", 600)
	a.addTenant("b", 600)

	var startedCount int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := make(chan struct{}, tickets)
	for i := 0; i < tickets; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		tkt := &ticket{
			tenant:   tenant,
			pipeline: fmt.Sprintf("%s-p%d", tenant, i), // distinct pipelines: no busy serialization
			need:     int64(50 + i%7*25),
		}
		tkt.start = func(tk *ticket) {
			mu.Lock()
			startedCount++
			mu.Unlock()
			if res, _, _ := a.books(); res > budget {
				t.Errorf("reserved %d exceeds budget %d", res, budget)
			}
			// Finish on another goroutine, as the server's execute does.
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.finish(tk)
				done <- struct{}{}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.submit(tkt); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	for i := 0; i < tickets; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("deadlock: %d/%d tickets finished", i, tickets)
		}
	}
	wg.Wait()
	if startedCount != tickets {
		t.Fatalf("started %d, want %d", startedCount, tickets)
	}
	if res, pk, _ := a.books(); res != 0 || pk > budget {
		t.Fatalf("reserved %d after all finished, peak %d (budget %d)", res, pk, budget)
	}
}

// TestReservationIsPlanPeakAsMVsGrow regenerates the TPC-DS base tables at
// a larger scale factor before each refresh of a one-token row-path
// pipeline, the daily-ingest setting in which every MV grows from one
// refresh to the next. A run is planned with the sizes the run before
// observed, so the first run at a new size may still fall back to a
// blocking write. From the second run at the final size on, the plan is
// priced with the sizes it meets: its reservation must be exactly the
// plan's proven peak × Headroom, clamped to [peak, slice], and the run must
// write nothing in the foreground.
func TestReservationIsPlanPeakAsMVsGrow(t *testing.T) {
	const headroom = 1.25
	const slice = 64 << 20
	st := storage.NewMemStore()
	s, _ := newTestGateway(t, Config{GlobalBudget: slice, Concurrency: 1, Headroom: headroom,
		NewStore: func(string) storage.Store { return st }})
	spec := TPCDSSpec("dw", "analytics", 0.05)
	spec.Encoding = false
	if err := s.Register(spec); err != nil {
		t.Fatal(err)
	}
	sfs := []float64{0.05, 0.1, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4}
	final := 0 // refreshes so far at the final size
	for i, sf := range sfs {
		if i > 0 && sf != sfs[i-1] {
			ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: sf, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Save(st, exec.SaveTable); err != nil {
				t.Fatal(err)
			}
		}
		exp, err := s.ExplainPipeline("dw") // the plan the trigger below solves
		if err != nil {
			t.Fatal(err)
		}
		run := refreshOK(t, s, "dw")
		peak := exp.PeakBytes
		t.Logf("run %d at sf %g: plan peak %d B, reserved %d B, actual peak %d B, %d blocking writes",
			i, sf, peak, run.ReservedBytes, run.ActualPeakBytes, run.FallbackWrites)
		if sf == sfs[len(sfs)-1] {
			final++
		}
		if final < 2 {
			continue // priced with sizes smaller than the ones it met
		}
		want := max(peak, min(int64(float64(peak)*headroom), slice))
		if run.ReservedBytes != want {
			t.Errorf("run %d at sf %g reserved %d B, want %d B (plan peak %d B × %g)", i, sf, run.ReservedBytes, want, peak, headroom)
		}
		if run.FallbackWrites != 0 {
			t.Errorf("run %d at sf %g made %d blocking writes under a %d B reservation (plan peak %d B, actual %d B)",
				i, sf, run.FallbackWrites, run.ReservedBytes, peak, run.ActualPeakBytes)
		}
		if run.Flagged != exp.FlaggedCount {
			t.Errorf("run %d kept %d MVs in the catalog, its plan flags %d", i, run.Flagged, exp.FlaggedCount)
		}
	}
	for _, row := range s.RunHistory(ledger.Filter{Pipeline: "dw", Limit: final - 1}) {
		for _, a := range row.Anomalies {
			if a.Kind == ledger.KindMispredict {
				t.Errorf("%s: %s anomaly: %s", row.RunID, a.Kind, a.Detail)
			}
		}
	}
}
