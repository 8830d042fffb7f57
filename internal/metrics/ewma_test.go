package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// ledgerEWMA is the ledger's baseline learner as it was before EWMA became
// the one learning rule: the reference EWMA must reproduce bit for bit, so
// no baseline, z-score or health report moves.
type ledgerEWMA struct {
	N    int64
	Mean float64
	Var  float64
}

func (w *ledgerEWMA) observe(x float64) {
	w.N++
	if w.N == 1 {
		w.Mean, w.Var = x, 0
		return
	}
	diff := x - w.Mean
	incr := 0.3 * diff
	w.Mean += incr
	w.Var = (1 - 0.3) * (w.Var + diff*incr)
}

func (w *ledgerEWMA) z(x float64) float64 {
	sigma := math.Sqrt(w.Var)
	if floor := 0.1 * math.Abs(w.Mean); sigma < floor {
		sigma = floor
	}
	if sigma < 1e-12 {
		sigma = 1e-12
	}
	return (x - w.Mean) / sigma
}

// healthZ is how the ledger's health report z-scored a node's latest wall
// time: 0 unless the floored sigma exceeds 1e-12.
func (w *ledgerEWMA) healthZ(x float64) float64 {
	sigma := math.Sqrt(w.Var)
	if floor := 0.1 * math.Abs(w.Mean); sigma < floor {
		sigma = floor
	}
	if sigma > 1e-12 {
		return (x - w.Mean) / sigma
	}
	return 0
}

func TestEWMAMatchesLedgerLearner(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	seqs := map[string]func(i int) float64{
		"zeros":    func(int) float64 { return 0 },
		"constant": func(int) float64 { return 0.25 },
		"tiny":     func(i int) float64 { return float64(i%3) * 1e-15 },
		"uniform":  func(int) float64 { return rng.Float64() },
		"seconds":  func(int) float64 { return rng.ExpFloat64() * 0.05 },
		"bytes":    func(int) float64 { return float64(rng.Int63n(1 << 40)) },
		"signed":   func(int) float64 { return rng.NormFloat64() * 1e3 },
		"step":     func(i int) float64 { return float64(1 + i/50) },
	}
	for name, next := range seqs {
		var got EWMA
		var want ledgerEWMA
		for i := 0; i < 200; i++ {
			x := next(i)
			got.Observe(x)
			want.observe(x)
			if got.N != want.N || math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
				math.Float64bits(got.Var) != math.Float64bits(want.Var) {
				t.Fatalf("%s[%d]: EWMA %+v, ledger learner %+v", name, i, got, want)
			}
			probe := next(i + 1)
			if g, w := got.Z(probe), want.z(probe); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s[%d]: Z(%v) = %v, ledger z = %v", name, i, probe, g, w)
			}
			var healthZ float64
			if got.Sigma() > 1e-12 {
				healthZ = got.Z(probe)
			}
			if w := want.healthZ(probe); math.Float64bits(healthZ) != math.Float64bits(w) {
				t.Fatalf("%s[%d]: health z %v, ledger health z %v", name, i, healthZ, w)
			}
		}
	}
}
