package memcat

import (
	"bytes"
	"errors"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
)

// TestSerializedEntry: a serialized entry charges len(data), shares the
// bytes it was given, decodes back to its table, and shows up in the
// inspector with its form and the size of the table it holds.
func TestSerializedEntry(t *testing.T) {
	tb := compressibleTable(t, 10000)
	data, err := colfmt.Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) >= tb.ByteSize() {
		t.Fatalf("test table did not shrink: %d vs %d", len(data), tb.ByteSize())
	}
	// The budget holds the serialized bytes and not the rows.
	c := New(int64(len(data)))
	if err := c.Put("mv", tb); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("rows fit a budget of their serialized size: %v", err)
	}
	e := SerializedEntry{Data: data, RawBytes: tb.ByteSize()}
	if err := c.PutEntry("mv", e); err != nil {
		t.Fatal(err)
	}
	if c.Used() != int64(len(data)) || c.Peak() != int64(len(data)) {
		t.Fatalf("Used %d Peak %d, want %d", c.Used(), c.Peak(), len(data))
	}
	got, ok := c.GetEntry("mv")
	if !ok || &got.(SerializedEntry).Data[0] != &data[0] {
		t.Fatal("entry copied the bytes")
	}

	rows, ok := c.Get("mv")
	if !ok {
		t.Fatal("Get missed")
	}
	if again, err := colfmt.Encode(rows); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("Get did not return the table (%v)", err)
	}

	infos := c.Entries()
	if len(infos) != 1 {
		t.Fatalf("%d entries", len(infos))
	}
	in := infos[0]
	if in.Form != FormSerialized || in.Compressed || in.SizeBytes != int64(len(data)) ||
		in.RawBytes != tb.ByteSize() {
		t.Fatalf("EntryInfo = %+v", in)
	}
	if err := c.Put("rows", tb); err == nil {
		t.Fatal("over-capacity Put accepted")
	}
}
