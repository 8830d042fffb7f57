package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/shortcircuit-db/sc/internal/dag"
)

func TestPaperProfileValid(t *testing.T) {
	if err := PaperProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []DeviceProfile{
		{DiskReadBW: 0, DiskWriteBW: 1, MemReadBW: 1, MemWriteBW: 1, ComputeScale: 1},
		{DiskReadBW: 1, DiskWriteBW: -1, MemReadBW: 1, MemWriteBW: 1, ComputeScale: 1},
		{DiskReadBW: 1, DiskWriteBW: 1, MemReadBW: 1, MemWriteBW: 1, DiskLatency: -time.Second, ComputeScale: 1},
		{DiskReadBW: 1, DiskWriteBW: 1, MemReadBW: 1, MemWriteBW: 1, ComputeScale: 0},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestDiskReadScalesWithSize(t *testing.T) {
	d := PaperProfile()
	small := d.DiskRead(1 << 20)
	large := d.DiskRead(1 << 30)
	if large <= small {
		t.Fatalf("1GB read (%v) not slower than 1MB read (%v)", large, small)
	}
	// 1GB at the effective 95MB/s table throughput is roughly 11.3s.
	gbf := float64(int64(1) << 30)
	want := time.Duration(gbf / 95e6 * float64(time.Second))
	if diff := large - want; diff < 0 || diff > time.Millisecond {
		t.Fatalf("1GB read = %v, want ≈ %v (+latency)", large, want)
	}
}

func TestZeroSizeCostsOnlyLatency(t *testing.T) {
	d := PaperProfile()
	if d.DiskRead(0) != d.DiskLatency {
		t.Fatalf("DiskRead(0) = %v", d.DiskRead(0))
	}
	if d.MemRead(0) != 0 {
		t.Fatalf("MemRead(0) = %v", d.MemRead(0))
	}
}

func TestNodeScoreGrowsWithFanout(t *testing.T) {
	d := PaperProfile()
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.MustAddEdge(a, b)
	sizes := []int64{1 << 30, 1 << 20}
	one := Scores(d, g, sizes)[a]

	g2 := dag.New()
	a2 := g2.AddNode("a")
	for i := 0; i < 3; i++ {
		c := g2.AddNode("c")
		g2.MustAddEdge(a2, c)
	}
	sizes2 := []int64{1 << 30, 1, 1, 1}
	three := Scores(d, g2, sizes2)[a2]
	if three <= one {
		t.Fatalf("fanout-3 score (%v) should exceed fanout-1 score (%v)", three, one)
	}
}

func TestChildlessNodeStillSavesWriteTime(t *testing.T) {
	d := PaperProfile()
	g := dag.New()
	a := g.AddNode("a")
	sizes := []int64{1 << 30}
	s := Scores(d, g, sizes)[a]
	wantMin := (d.DiskWrite(sizes[0]) - d.MemWrite(sizes[0])).Seconds()
	if s < wantMin*0.99 || s > wantMin*1.01 {
		t.Fatalf("childless score = %v, want ≈ %v", s, wantMin)
	}
}

func TestScoresNonNegativeProperty(t *testing.T) {
	d := PaperProfile()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dag.New()
		n := 2 + rng.Intn(15)
		sizes := make([]int64, n)
		for i := 0; i < n; i++ {
			g.AddNode("n")
			sizes[i] = rng.Int63n(1 << 32)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.MustAddEdge(dag.NodeID(i), dag.NodeID(j))
				}
			}
		}
		for _, s := range Scores(d, g, sizes) {
			if s < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreMonotoneInSizeProperty(t *testing.T) {
	d := PaperProfile()
	f := func(s1, s2 uint32) bool {
		a, b := int64(s1), int64(s2)
		if a > b {
			a, b = b, a
		}
		g := dag.New()
		p := g.AddNode("p")
		c := g.AddNode("c")
		g.MustAddEdge(p, c)
		lo := Scores(d, g, []int64{a, 1})[p]
		hi := Scores(d, g, []int64{b, 1})[p]
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
