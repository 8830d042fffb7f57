package introspect

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/memcat"
)

// diamond builds the fixture DAG a -> {b, c} -> d with fixed sizes and
// scores, a plan that flags a and b, and one node (e) that is excluded by
// size. Everything is deterministic, so the explain JSON is golden-able.
func diamondInput() ExplainInput {
	g := dag.New()
	a := g.AddNode("mv_a")
	b := g.AddNode("mv_b")
	c := g.AddNode("mv_c")
	d := g.AddNode("mv_d")
	e := g.AddNode("mv_e")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)

	raw := []int64{400, 300, 300, 100, 5000}
	enc := []int64{200, 150, 300, 50, 4000}
	// The §VI-A device without serialization overhead: the golden file's
	// numbers were captured under it.
	dev := costmodel.DeviceProfile{DiskReadBW: 519.8e6, DiskWriteBW: 358.9e6, DiskLatency: 175 * time.Microsecond, MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1}
	prob := &core.Problem{G: g, Sizes: enc, Scores: make([]float64, g.Len()), Memory: 512}
	pricing := make([]NodePricing, g.Len())
	for i, predicted := range []int64{210, 140, 310, 60, 4100} {
		read, write := costmodel.ScoreParts(dev, g, raw, enc, dag.NodeID(i))
		prob.Scores[i] = costmodel.Score(read, write)
		pricing[i] = NodePricing{RawBytes: raw[i], PredictedBytes: predicted, ReadSaveSeconds: read.Seconds(), WriteSaveSeconds: write.Seconds()}
	}
	prob.Scores[int(e)] = 0 // never worth flagging: also excluded on score
	plan := &core.Plan{
		Order:   []dag.NodeID{a, b, c, d, e},
		Flagged: []bool{true, true, false, false, false},
	}
	return ExplainInput{
		Pipeline: "diamond",
		Problem:  prob,
		Plan:     plan,
		Pricing:  pricing,
		Encoding: true,
	}
}

// TestExplainGolden pins the explain JSON shape against a golden file, so
// the HTTP surface (GET /v1/pipelines/{p}/explain) cannot drift silently.
// Regenerate with -update after an intentional change.
func TestExplainGolden(t *testing.T) {
	rep := Explain(diamondInput())
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "explain_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("explain JSON drifted from golden file.\n got: %s\nwant: %s", got, want)
	}
}

// TestExplainDecisions checks the semantic content: every node gets a
// decision, classes follow the constraint partition, and the flip
// conditions carry the marginal byte costs.
func TestExplainDecisions(t *testing.T) {
	in := diamondInput()
	rep := Explain(in)
	if rep.Nodes != 5 || len(rep.Decisions) != 5 {
		t.Fatalf("decisions = %d over %d nodes, want 5/5", len(rep.Decisions), rep.Nodes)
	}
	byName := make(map[string]FlagDecision)
	for _, d := range rep.Decisions {
		if d.Flip == "" {
			t.Errorf("%s: empty flip condition", d.Node)
		}
		byName[d.Node] = d
	}
	if rep.FlaggedCount != 2 {
		t.Fatalf("flagged = %d, want 2", rep.FlaggedCount)
	}
	if d := byName["mv_e"]; d.Class != "excluded" || d.Flagged {
		t.Fatalf("mv_e = %+v, want excluded and unflagged", d)
	}
	for _, n := range []string{"mv_a", "mv_b"} {
		d := byName[n]
		if !d.Flagged {
			t.Fatalf("%s not flagged", n)
		}
		if d.SlackBytes < 0 {
			t.Errorf("%s: negative slack %d under a feasible plan", n, d.SlackBytes)
		}
		if d.MarginalBytes != d.SizedBytes {
			t.Errorf("%s: marginal %d != sized %d", n, d.MarginalBytes, d.SizedBytes)
		}
	}
	for _, d := range rep.Decisions {
		if d.Flagged && d.ScoreSeconds <= 0 {
			t.Errorf("%s flagged with non-positive score %g", d.Node, d.ScoreSeconds)
		}
		if d.Flagged {
			continue
		}
		if d.SlackBytes != 0 {
			t.Errorf("%s: unflagged node reports slack %d", d.Node, d.SlackBytes)
		}
	}
	// The report's accounting must be internally consistent.
	var score float64
	for _, d := range rep.Decisions {
		if d.Flagged {
			score += d.ScoreSeconds
		}
	}
	if score != rep.TotalScoreSeconds {
		t.Errorf("total score %g != sum of flagged %g", rep.TotalScoreSeconds, score)
	}
	if rep.PeakBytes > rep.MemoryBytes {
		t.Errorf("peak %d exceeds budget %d for a feasible plan", rep.PeakBytes, rep.MemoryBytes)
	}
}

// TestCatalogReportAggregation checks FinishCatalogReport's sums, codec
// aggregation and score-density eviction ranking.
func TestCatalogReportAggregation(t *testing.T) {
	at := time.Unix(1700000000, 0)
	rep := CatalogReport{
		At:          at,
		BudgetBytes: 1 << 20,
		UsedBytes:   700,
		Entries: []CatalogEntry{
			{EntryInfo: memcat.EntryInfo{Name: "cheap", SizeBytes: 400,
				CodecChunks: map[string]int{"dict": 2}, CodecBytes: map[string]int64{"dict": 400}},
				ScoreSeconds: 0.001},
			{EntryInfo: memcat.EntryInfo{Name: "dear", SizeBytes: 200,
				CodecChunks: map[string]int{"dict": 1, "rle": 1}, CodecBytes: map[string]int64{"dict": 120, "rle": 80}},
				ScoreSeconds: 2.0},
			{EntryInfo: memcat.EntryInfo{Name: "unknown", SizeBytes: 100}},
		},
	}
	FinishCatalogReport(&rep)
	if rep.EntryBytes != 700 {
		t.Fatalf("entry bytes = %d, want 700", rep.EntryBytes)
	}
	if rep.EntryBytes != rep.UsedBytes {
		t.Fatalf("entry bytes %d disagree with used bytes %d", rep.EntryBytes, rep.UsedBytes)
	}
	if rep.CodecChunks["dict"] != 3 || rep.CodecBytes["dict"] != 520 || rep.CodecBytes["rle"] != 80 {
		t.Fatalf("codec aggregation wrong: %+v %+v", rep.CodecChunks, rep.CodecBytes)
	}
	rank := make(map[string]int)
	for _, e := range rep.Entries {
		rank[e.Name] = e.EvictionRank
	}
	// unknown (density 0) evicts first, then cheap (0.001/400), then dear
	// (2.0/200) — the cost model's least-valued byte goes first.
	if rank["unknown"] != 1 || rank["cheap"] != 2 || rank["dear"] != 3 {
		t.Fatalf("eviction ranks = %v, want unknown<cheap<dear", rank)
	}
}
