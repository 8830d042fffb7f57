package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFiguresGolden pins the printed rows of every deterministic paper
// figure and table. Fig13 (wall-clock solve times) and Fig14 (seconds of
// generated-DAG sweeps) are left out. A change that means to move a figure
// rewrites the golden with `go test -run TestFiguresGolden -update`.
func TestFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []func(io.Writer) error{Fig3, Table3, Fig9, Fig10, Fig11, Table4, Fig12, Table5} {
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	golden := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("figures drifted from %s at line %d (run with -update to accept):\ngot:  %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}
