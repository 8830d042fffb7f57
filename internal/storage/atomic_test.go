package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// TestFSStoreWriteIsAtomicUnderConcurrentReads hammers one object with
// alternating full rewrites while readers decode it: every read must see
// a complete v2 file — never a torn mix — or ErrNotFound before the first
// write lands.
func TestFSStoreWriteIsAtomicUnderConcurrentReads(t *testing.T) {
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := func(fill int64, rows int) []byte {
		tb := table.New(table.NewSchema(table.Column{Name: "k", Type: table.Int}))
		for i := 0; i < rows; i++ {
			tb.Cols[0].Ints = append(tb.Cols[0].Ints, fill)
		}
		data, err := colfmt.EncodeTable(tb, encoding.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Two versions with very different sizes, so a torn write (partial
	// overwrite of a longer file) would be visible to the decoder.
	small, large := blob(1, 100), blob(2, 50000)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			data := small
			if i%2 == 0 {
				data = large
			}
			if err := fs.Write("obj", data); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 200; r++ {
		data, err := fs.Read("obj")
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := colfmt.Decode(data); err != nil {
			t.Fatalf("read %d: torn object: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFSStoreLeftoverTempIsInvisible simulates a crash mid-write (a
// stranded .tmp-* file) and checks the store's reading surface ignores it.
func TestFSStoreLeftoverTempIsInvisible(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("good", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// A crash between CreateTemp and Rename leaves exactly this.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123456"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, ".tmp-") {
			t.Fatalf("List exposed stranded temp file %q", n)
		}
	}
	if len(names) != 1 || names[0] != "good" {
		t.Fatalf("List = %v, want [good]", names)
	}
	if _, err := fs.Read(".tmp-123456"); err == nil {
		t.Fatal("Read served a temp file")
	}
}

// TestNewFSStoreSweepsStaleTemps: temp files stranded by a crashed writer
// are removed when the store is reopened, so they cannot accumulate.
func TestNewFSStoreSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("good", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".tmp-crashed")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// A fresh temp file — possibly a concurrent writer's — must survive.
	live := filepath.Join(dir, ".tmp-live")
	if err := os.WriteFile(live, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFSStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived reopen: %v", err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("fresh temp swept despite age gate: %v", err)
	}
	if got, err := fs.Read("good"); err != nil || string(got) != "payload" {
		t.Fatalf("real object disturbed by sweep: %q, %v", got, err)
	}
}

// TestFSStoreRewriteReplacesWholeObject: after overwriting a large object
// with a small one, the old tail must be gone (no in-place truncation
// artifacts).
func TestFSStoreRewriteReplacesWholeObject(t *testing.T) {
	fs, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = 0xAB
	}
	if err := fs.Write("obj", big); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("obj", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tiny" {
		t.Fatalf("object = %d bytes, want the 4-byte rewrite", len(got))
	}
}
