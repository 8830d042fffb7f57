package storage

import (
	"errors"
	"testing"
	"time"
)

// storeContract exercises the Store interface behaviours every
// implementation must share.
func storeContract(t *testing.T, s Store) {
	t.Helper()
	if err := s.Write("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("b", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("a")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Read(a) = %q, %v", got, err)
	}
	size, err := s.Size("b")
	if err != nil || size != 6 {
		t.Fatalf("Size(b) = %d, %v", size, err)
	}
	names, err := s.List()
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v, %v", names, err)
	}
	// Overwrite.
	if err := s.Write("a", []byte("xy")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read("a")
	if string(got) != "xy" {
		t.Fatalf("after overwrite Read(a) = %q", got)
	}
	// Delete.
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete: %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s.Size("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size(missing): %v", err)
	}
}

func TestMemStoreContract(t *testing.T) {
	storeContract(t, NewMemStore())
}

func TestFSStoreContract(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}

func TestThrottledContract(t *testing.T) {
	storeContract(t, &Throttled{Inner: NewMemStore()})
}

func TestMemStoreCopiesData(t *testing.T) {
	s := NewMemStore()
	buf := []byte("abc")
	if err := s.Write("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'z'
	got, _ := s.Read("k")
	if string(got) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", got)
	}
	got[0] = 'q'
	got2, _ := s.Read("k")
	if string(got2) != "abc" {
		t.Fatalf("read aliased store buffer: %q", got2)
	}
}

func TestFSStoreRejectsTraversal(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", `a\b`, "..", "x..y"} {
		if err := s.Write(name, []byte("x")); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestFSStoreListSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write("real", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "real" {
		t.Fatalf("List = %v, %v", names, err)
	}
}

func TestThrottledDelaysReads(t *testing.T) {
	inner := NewMemStore()
	data := make([]byte, 1<<20)
	if err := inner.Write("big", data); err != nil {
		t.Fatal(err)
	}
	th := &Throttled{Inner: inner, ReadBWBps: 100e6} // 1MB at 100MB/s ≈ 10ms
	start := time.Now()
	if _, err := th.Read("big"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("read too fast: %v", elapsed)
	}
	r, w := th.SleptTimes()
	if r < 8*time.Millisecond || w != 0 {
		t.Fatalf("SleptTimes = %v, %v", r, w)
	}
}

func TestThrottledSleepScaleSpeedsUp(t *testing.T) {
	inner := NewMemStore()
	th := &Throttled{Inner: inner, WriteBWBps: 1e6, SleepScale: 0.01}
	if err := th.Write("k", make([]byte, 1e6)); err != nil { // 1s unscaled
		t.Fatal(err)
	}
	if read, write := th.SleptTimes(); read != 0 || write != 10*time.Millisecond {
		t.Fatalf("slept %v reading, %v writing; want 0 and the scaled 10ms", read, write)
	}
}

func TestThrottledZeroBandwidthNoDelay(t *testing.T) {
	th := &Throttled{Inner: NewMemStore()}
	if err := th.Write("k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Read("k"); err != nil {
		t.Fatal(err)
	}
	if read, write := th.SleptTimes(); read != 0 || write != 0 {
		t.Fatalf("unthrottled ops slept %v reading, %v writing", read, write)
	}
}
