package memcat

import (
	"bytes"
	"errors"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
)

// TestSerializedEntry: a serialized entry charges len(data), shares the
// bytes it was given, decodes on every row read and reports that cost, and
// shows up in the inspector with its form and the size of the table it
// holds.
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
	e := Serialized(data, tb.ByteSize())
	if err := c.PutEntry("mv", e); err != nil {
		t.Fatal(err)
	}
	if c.Used() != int64(len(data)) || c.Peak() != int64(len(data)) {
		t.Fatalf("Used %d Peak %d, want %d", c.Used(), c.Peak(), len(data))
	}
	if &e.(serializedEntry).data[0] != &data[0] {
		t.Fatal("entry copied the bytes")
	}

	got, info, ok := c.GetTable("mv")
	if !ok {
		t.Fatal("GetTable missed")
	}
	if again, err := colfmt.Encode(got); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("GetTable did not return the table (%v)", err)
	}
	if !info.Compressed || info.Decoded != tb.ByteSize() || info.Encoded != int64(len(data)) {
		t.Fatalf("ReadInfo = %+v", info)
	}
	if _, _, ok := c.GetCompressed("mv"); ok {
		t.Fatal("a serialized entry has no chunk view")
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

// TestSchemaDecodesNoTable: Schema answers for every form without a
// whole-table decode. The serialized entry's payload is corrupted past its
// column headers, so any decode of it fails while the header still reads.
func TestSchemaDecodesNoTable(t *testing.T) {
	tb := compressibleTable(t, 1000)
	data, err := colfmt.Encode(tb)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // last payload byte, just before its checksum
	if _, err := colfmt.Decode(data); err == nil {
		t.Fatal("corrupted payload still decodes")
	}
	c := New(1 << 30)
	for form, e := range map[string]Entry{
		FormRows:       Plain(tb),
		FormSerialized: Serialized(data, tb.ByteSize()),
		FormCompressed: compress(t, tb),
	} {
		if err := c.PutEntry(form, e); err != nil {
			t.Fatal(err)
		}
		sch, ok := c.Schema(form)
		if !ok || !sch.Equal(tb.Schema) {
			t.Errorf("%s: Schema = %v, %v", form, sch, ok)
		}
		if FormOf(e) != form {
			t.Errorf("%s: FormOf = %q", form, FormOf(e))
		}
	}
	if _, ok := c.Schema("absent"); ok {
		t.Error("Schema of an absent entry")
	}
	if _, ok := c.Get(FormSerialized); ok {
		t.Error("a corrupt serialized entry must read as absent")
	}
}
