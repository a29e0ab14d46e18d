package relstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hostileHeaders are v2 headers whose declared sizes dwarf the bytes that
// follow them: a row count that would preallocate tens of gigabytes, and a
// segment claiming a terabyte. Both are committed as FuzzReadTyped seeds.
var hostileHeaders = map[string]string{
	"rows":  `{"rel":2,"rows":2228633210,"schema":[{"name":"A","type":"INTEGER"}],"segments":[{"rows":2228633210,"bytes":12,"crc":0}]}` + "\n" + `[{"i":"1"}]` + "\n",
	"bytes": `{"rel":2,"rows":1,"schema":[{"name":"A","type":"INTEGER"}],"segments":[{"rows":1,"bytes":999999999999,"crc":0}]}` + "\n" + `[{"i":"1"}]` + "\n",
}

// TestHostileHeadersRejected pins that untrusted sizes are bounded before
// they are used: both readers return an error instead of exhausting memory.
func TestHostileHeadersRejected(t *testing.T) {
	dir := t.TempDir()
	for name, src := range hostileHeaders {
		if _, err := ReadTyped(strings.NewReader(src)); err == nil {
			t.Errorf("%s: ReadTyped accepted a hostile header", name)
		}
		path := filepath.Join(dir, name+".rel")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if set, err := OpenSegments(path, 0); err == nil {
			set.Close()
			t.Errorf("%s: OpenSegments accepted a hostile header", name)
		}
	}
}

// FuzzReadTyped asserts that no byte sequence makes ReadTyped panic or
// allocate past its input, and that anything it accepts round-trips through
// both the v1 and the v2 writers.
func FuzzReadTyped(f *testing.F) {
	rows := &Rows{
		Schema: MustSchema(
			Column{Name: "A", Type: KindInt, NotNull: true},
			Column{Name: "B", Type: KindString},
			Column{Name: "C", Type: KindFloat},
		),
		Data: []Row{{Int(1), Str("x"), Float(2.5)}, {Int(2), Null(), Null()}, {Int(3), Str("y\nz"), Float(-1)}},
	}
	var v1, v2 bytes.Buffer
	if err := WriteTyped(&v1, rows); err != nil {
		f.Fatal(err)
	}
	if err := WriteTypedSegmented(&v2, rows, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, src []byte) {
		got, err := ReadTyped(bytes.NewReader(src))
		if err != nil {
			return
		}
		for _, seg := range []int{0, 1} {
			var buf bytes.Buffer
			var werr error
			if seg == 0 {
				werr = WriteTyped(&buf, got)
			} else {
				werr = WriteTypedSegmented(&buf, got, seg)
			}
			if werr != nil {
				t.Fatalf("rewrite of accepted input failed: %v", werr)
			}
			again, err := ReadTyped(&buf)
			if err != nil {
				t.Fatalf("reread of rewritten input failed: %v", err)
			}
			if !again.Schema.Equal(got.Schema) || again.Len() != got.Len() {
				t.Fatalf("round trip changed the relation: %d rows -> %d", got.Len(), again.Len())
			}
			for i := range got.Data {
				if again.Data[i].Key() != got.Data[i].Key() {
					t.Fatalf("round trip changed row %d: %v -> %v", i, got.Data[i], again.Data[i])
				}
			}
		}
	})
}
