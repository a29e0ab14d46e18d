package relstore

import (
	"math"
	"strings"
	"testing"
)

// probeValues are the numbers where a hash key and Value.Equal can part
// ways: signed zero, NaN, the ±2^53 edge of exact float64 integers, and a
// large integer whose neighbours round to the same float64.
func probeValues() []Value {
	const big = 1 << 60
	return []Value{
		Int(0), Float(0), Float(math.Copysign(0, -1)),
		Float(math.NaN()),
		Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1),
		Float(1<<53 - 1), Float(1 << 53), Float(1<<53 + 2),
		Int(-(1<<53 + 1)), Float(-(1 << 53)),
		Int(big), Int(big + 1), Float(big),
		Float(math.Inf(1)), Float(0.5),
	}
}

// TestIndexProbeMatchesScan: every index probe — Select's Eq and IN paths,
// Lookup and Delete — returns exactly the rows the scan path returns, on
// the values where keys collide or differ in representation.
func TestIndexProbeMatchesScan(t *testing.T) {
	schema := MustSchema(
		Column{Name: "ID", Type: KindInt, NotNull: true},
		Column{Name: "N", Type: KindFloat},
	)
	vals := probeValues()
	build := func(indexed bool) *Table {
		tab := NewTable("P", schema)
		for i, v := range vals {
			if err := tab.Insert(Row{Int(int64(i)), v}); err != nil {
				t.Fatal(err)
			}
		}
		if indexed {
			if err := tab.CreateIndex("N"); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	scan, idx := build(false), build(true)
	same := func(what string, want, got []Row) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: index path %d rows, scan %d", what, len(got), len(want))
		}
		for i := range want { // by ID: NaN cells never compare Equal
			if want[i][0].AsInt() != got[i][0].AsInt() {
				t.Fatalf("%s: row %d: index %v, scan %v", what, i, got[i], want[i])
			}
		}
	}
	for _, v := range vals {
		preds := []Pred{
			Eq("N", v),
			And(Eq("N", v), Cmp(CmpGe, Col("ID"), Lit(Int(0)))),
			In(Col("N"), v, Int(7)),
		}
		for _, p := range preds {
			want, err := scan.Select(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := idx.Select(p)
			if err != nil {
				t.Fatal(err)
			}
			same("select "+p.SQL(), want.Data, got.Data)
		}
		wantL, _ := scan.Lookup("N", v)
		gotL, _ := idx.Lookup("N", v)
		same("lookup "+v.String(), wantL, gotL)
	}
	// Signed zero shares one key; large integers share a key but not Equal.
	got, err := idx.Select(Eq("N", Float(math.Copysign(0, -1))))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 3 {
		t.Errorf("Eq(N, -0.0) matched %d rows, want the three zeros", len(got.Data))
	}
	got, _ = idx.Select(Eq("N", Int(1<<60+1)))
	for _, r := range got.Data {
		if r[1].Kind() == KindInt && r[1].AsInt() != 1<<60+1 {
			t.Errorf("Eq(N, 2^60+1) matched %v", r)
		}
	}
	if len(got.Data) != 2 {
		t.Errorf("Eq(N, 2^60+1) matched %d rows, want itself and Float(2^60)", len(got.Data))
	}

	for _, v := range vals {
		a, b := build(false), build(true)
		na, err := a.Delete(Eq("N", v))
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.Delete(Eq("N", v))
		if err != nil {
			t.Fatal(err)
		}
		if na != nb {
			t.Fatalf("delete %v: index path removed %d rows, scan %d", v, nb, na)
		}
		same("after delete "+v.String(), a.Rows().Data, b.Rows().Data)
	}
}

// FuzzValueKey: Equal values share a key, for every int/float pairing and
// the special floats, and values of different key classes (NULL, number,
// string, bool) never share one.
func FuzzValueKey(f *testing.F) {
	f.Add(uint8(1), int64(0), math.Copysign(0, -1), "", false)
	f.Add(uint8(1), int64(1<<53+1), float64(1<<53), "", true)
	f.Add(uint8(2), int64(1<<60), float64(1<<60), "f", false)
	f.Add(uint8(3), int64(-7), math.NaN(), "i\x0e", true)
	f.Add(uint8(4), int64(math.MinInt64), math.Inf(-1), "bt", true)
	f.Fuzz(func(t *testing.T, sel uint8, i int64, x float64, s string, b bool) {
		vals := []Value{Null(), Int(i), Float(x), Str(s), Bool(b),
			Float(float64(i)), Int(int64(x)), Float(-x), Int(-i)}
		class := func(v Value) int {
			switch {
			case v.IsNull():
				return 0
			case v.IsNumeric():
				return 1
			}
			return int(v.Kind())
		}
		for _, a := range vals {
			for _, c := range vals {
				ka, kc := a.Key(), c.Key()
				if a.Equal(c) && ka != kc {
					t.Fatalf("%v (%s) Equal %v (%s) but keys %q != %q", a, a.Kind(), c, c.Kind(), ka, kc)
				}
				if class(a) != class(c) && ka == kc {
					t.Fatalf("%v (%s) and %v (%s) share key %q", a, a.Kind(), c, c.Kind(), ka)
				}
			}
		}
		v := vals[int(sel)%len(vals)]
		if got := string(v.AppendKey([]byte("pre"))); got != "pre"+v.Key() {
			t.Fatalf("AppendKey(%v) = %q, want prefix + %q", v, got, v.Key())
		}
	})
}

// TestReadSnapshotsSurviveMutation: rows handed out by Rows, Select and
// Lookup are shared with the table, yet a later Update, Delete or Truncate
// never changes a snapshot already taken.
func TestReadSnapshotsSurviveMutation(t *testing.T) {
	mutations := map[string]func(*Table) error{
		"update": func(tab *Table) error {
			_, err := tab.Update(nil, func(r Row) Row {
				r[1] = Str("MUTATED")
				return r
			})
			return err
		},
		"delete": func(tab *Table) error {
			_, err := tab.Delete(Cmp(CmpLt, Col("ProcedureID"), Lit(Int(5))))
			return err
		},
		"truncate": func(tab *Table) error { tab.Truncate(); return nil },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			tab := NewTable("T", procSchema(t))
			for i := 0; i < 10; i++ {
				if err := tab.Insert(Row{Int(int64(i)), Str("None"), Float(float64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tab.CreateIndex("Smoking"); err != nil {
				t.Fatal(err)
			}
			all := tab.Rows()
			sel, err := tab.Select(Eq("Smoking", Str("None")))
			if err != nil {
				t.Fatal(err)
			}
			scan, err := tab.Select(Cmp(CmpGe, Col("PacksPerDay"), Lit(Float(0))))
			if err != nil {
				t.Fatal(err)
			}
			look, err := tab.Lookup("Smoking", Str("None"))
			if err != nil {
				t.Fatal(err)
			}
			want := all.Clone()
			if err := mutate(tab); err != nil {
				t.Fatal(err)
			}
			for what, got := range map[string][]Row{"rows": all.Data, "select": sel.Data, "scan": scan.Data, "lookup": look} {
				if len(got) != len(want.Data) {
					t.Fatalf("%s snapshot has %d rows after %s, want %d", what, len(got), name, len(want.Data))
				}
				for i := range got {
					if !got[i].Equal(want.Data[i]) {
						t.Fatalf("%s snapshot row %d changed after %s: %v, want %v", what, i, name, got[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestReplaceValidates: Replace rejects rows that break the schema, names
// the table in the error the way Insert does, and leaves an existing table
// in place; a valid Replace adopts the rows as one fresh table.
func TestReplaceValidates(t *testing.T) {
	db := NewDB("tmp")
	schema := procSchema(t)
	old, err := db.Replace("T", &Rows{Schema: schema, Data: []Row{{Int(1), Str("a"), Float(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Row{
		"not null": {Null(), Str("a"), Float(1)},
		"kind":     {Int(2), Int(3), Float(1)},
		"arity":    {Int(2), Str("a")},
	} {
		_, err := db.Replace("T", &Rows{Schema: schema, Data: []Row{{Int(9), Null(), Null()}, bad}})
		if err == nil {
			t.Fatalf("%s: Replace accepted %v", name, bad)
		}
		insertErr := NewTable("T", schema).Insert(bad)
		if insertErr == nil || !strings.Contains(err.Error(), "T") || !strings.Contains(insertErr.Error(), "T") {
			t.Fatalf("%s: errors must name the table: replace %v, insert %v", name, err, insertErr)
		}
		if cur, _ := db.Table("T"); cur != old {
			t.Fatalf("%s: failed Replace swapped the table", name)
		}
	}

	data := []Row{{Int(1), Str("a"), Float(1)}, {Int(2), Null(), Null()}}
	tab, err := db.Replace("T", &Rows{Schema: schema, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if cur, _ := db.Table("T"); cur != tab || tab.Len() != 2 || tab.HasIndex("Smoking") {
		t.Fatal("Replace must install a fresh, unindexed table holding the rows")
	}
	if err := tab.Insert(Row{Int(3), Str("c"), Float(3)}); err != nil {
		t.Fatal(err)
	}
	if n, err := tab.Delete(Eq("ProcedureID", Int(1))); err != nil || n != 1 {
		t.Fatalf("delete after Replace: n=%d err=%v", n, err)
	}
	if err := tab.CreateIndex("ProcedureID"); err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Lookup("ProcedureID", Int(3)); len(got) != 1 {
		t.Fatalf("lookup after Replace+Insert: %v", got)
	}
}

// TestProjectIdentityShares: projecting every column in order returns the
// input rows without copying, in a slice an append cannot write through.
func TestProjectIdentityShares(t *testing.T) {
	schema := procSchema(t)
	data := make([]Row, 2, 4)
	data[0] = Row{Int(1), Str("a"), Float(1)}
	data[1] = Row{Int(2), Str("b"), Float(2)}
	in := &Rows{Schema: schema, Data: data}
	out, err := Project(in, schema.Names()...)
	if err != nil {
		t.Fatal(err)
	}
	if &out.Data[0][0] != &in.Data[0][0] || cap(out.Data) != len(out.Data) {
		t.Fatal("identity Project must share the rows in a capped slice")
	}
	_ = append(out.Data, Row{Int(3), Str("c"), Float(3)})
	if in.Data[:3][2] != nil {
		t.Fatal("append to the projection wrote into the input's backing array")
	}
	swapped, err := Project(in, "Smoking", "ProcedureID", "PacksPerDay")
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Data[0][0].AsString() != "a" {
		t.Fatalf("reordering Project: %v", swapped.Data[0])
	}
}
