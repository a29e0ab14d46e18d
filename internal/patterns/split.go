package patterns

import (
	"fmt"

	"guava/internal/relstore"
)

// Split is the Table 1 pattern where "attributes from a single form are
// distributed over several tables"; reading requires the Join transformation
// on the shared key. Each part table holds the key plus a subset of the
// form's columns.
type Split struct {
	// Parts assigns non-key columns to part tables; part i is stored in
	// table "<form>_part<i>". Nil Parts auto-splits columns pairwise.
	Parts [][]string
}

// Name implements Layout.
func (*Split) Name() string { return "Split" }

// Describe implements Layout.
func (*Split) Describe() string {
	return "Attributes from a single form are distributed over several tables; reading joins the part tables on the form key."
}

// partition returns the resolved column groups for a form, validating
// coverage and disjointness.
func (s *Split) partition(form FormInfo) ([][]string, error) {
	nonKey := make([]string, 0, form.Schema.Arity()-1)
	for _, c := range form.Schema.Columns {
		if c.Name != form.KeyColumn {
			nonKey = append(nonKey, c.Name)
		}
	}
	if s.Parts == nil {
		// Auto-split: two columns per part table.
		var parts [][]string
		for i := 0; i < len(nonKey); i += 2 {
			end := i + 2
			if end > len(nonKey) {
				end = len(nonKey)
			}
			parts = append(parts, nonKey[i:end])
		}
		if len(parts) == 0 {
			parts = [][]string{{}}
		}
		return parts, nil
	}
	seen := map[string]bool{}
	for _, part := range s.Parts {
		for _, col := range part {
			if col == form.KeyColumn {
				return nil, fmt.Errorf("patterns: split: key column %q cannot be assigned to a part", col)
			}
			if !form.Schema.Has(col) {
				return nil, fmt.Errorf("patterns: split: unknown column %q", col)
			}
			if seen[col] {
				return nil, fmt.Errorf("patterns: split: column %q assigned twice", col)
			}
			seen[col] = true
		}
	}
	for _, col := range nonKey {
		if !seen[col] {
			return nil, fmt.Errorf("patterns: split: column %q not assigned to any part", col)
		}
	}
	return s.Parts, nil
}

func partTable(form FormInfo, i int) string { return fmt.Sprintf("%s_part%d", form.Name, i) }

func (s *Split) partSchema(form FormInfo, part []string) (*relstore.Schema, error) {
	cols := []relstore.Column{{Name: form.KeyColumn, Type: relstore.KindInt, NotNull: true}}
	for _, name := range part {
		c, err := form.Schema.Col(name)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return relstore.NewSchema(cols...)
}

// Install implements Layout. Every part table indexes the shared key so
// per-record fetches (ReadKeys, Update) probe instead of scanning.
func (s *Split) Install(db *relstore.DB, form FormInfo) error {
	parts, err := s.partition(form)
	if err != nil {
		return err
	}
	for i, part := range parts {
		schema, err := s.partSchema(form, part)
		if err != nil {
			return err
		}
		t, err := db.EnsureTable(partTable(form, i), schema)
		if err != nil {
			return err
		}
		if err := t.CreateIndex(form.KeyColumn); err != nil {
			return err
		}
	}
	return nil
}

// Write implements Layout.
func (s *Split) Write(db *relstore.DB, form FormInfo, row relstore.Row) error {
	parts, err := s.partition(form)
	if err != nil {
		return err
	}
	key := row[form.Schema.Index(form.KeyColumn)]
	for i, part := range parts {
		t, err := db.Table(partTable(form, i))
		if err != nil {
			return err
		}
		pr := make(relstore.Row, 0, len(part)+1)
		pr = append(pr, key)
		for _, col := range part {
			pr = append(pr, row[form.Schema.Index(col)])
		}
		if err := t.Insert(pr); err != nil {
			return err
		}
	}
	return nil
}

// Read implements Layout. It joins the part tables on the key (the paper's
// Join transformation).
func (s *Split) Read(db *relstore.DB, form FormInfo) (*relstore.Rows, error) {
	return s.readParts(db, form, nil)
}

// ReadKeys implements KeyedReader: the same join pipeline as Read, but each
// part contributes only the rows for the requested keys (index probes via
// the key-membership predicate).
func (s *Split) ReadKeys(db *relstore.DB, form FormInfo, keys []relstore.Value) (*relstore.Rows, error) {
	if keys == nil {
		keys = []relstore.Value{}
	}
	return s.readParts(db, form, keys)
}

// readParts joins the part tables on the key in one pass. With keys == nil
// every row is fetched; otherwise each part is filtered to the given keys
// first. Parts 1..P-1 are bucketed by key; part 0 is walked in order, and
// each key's matches are combined in part order — part 1 varying slowest —
// writing values straight into the form's column order. That is the row
// set and order of the chained inner joins ((p0 ⋈ p1) ⋈ p2) ⋯ projected to
// the form, without the intermediate relations.
func (s *Split) readParts(db *relstore.DB, form FormInfo, keys []relstore.Value) (*relstore.Rows, error) {
	parts, err := s.partition(form)
	if err != nil {
		return nil, err
	}
	fetched := make([]*relstore.Rows, len(parts))
	for i := range parts {
		t, err := db.Table(partTable(form, i))
		if err != nil {
			return nil, err
		}
		if keys == nil {
			fetched[i] = t.Rows()
		} else if fetched[i], err = t.Select(relstore.In(relstore.Col(form.KeyColumn), keys...)); err != nil {
			return nil, err
		}
	}
	return joinParts(form, parts, fetched)
}

// joinParts is readParts' one-pass join over the fetched part relations;
// part i holds the key in column 0 and then the columns parts[i] names.
func joinParts(form FormInfo, parts [][]string, fetched []*relstore.Rows) (*relstore.Rows, error) {
	if len(fetched) == 0 {
		return &relstore.Rows{Schema: form.Schema}, nil
	}
	// Output column c comes from column srcCol[c] of part srcPart[c]; the
	// key, assigned to no part, stays at part 0's column 0.
	arity := form.Schema.Arity()
	srcPart, srcCol := make([]int, arity), make([]int, arity)
	for p, part := range parts {
		for k, name := range part {
			c := form.Schema.Index(name)
			srcPart[c], srcCol[c] = p, k+1
		}
	}
	cols := make([]relstore.Column, arity)
	for c := range cols {
		cols[c] = fetched[srcPart[c]].Schema.Columns[srcCol[c]]
	}
	schema, err := relstore.NewSchema(cols...)
	if err != nil {
		return nil, err
	}

	// Bucket parts 1..P-1 by key: buckets[key][p] lists part p's rows with
	// that key in storage order.
	nparts := len(fetched)
	buckets := map[string][][]relstore.Row{}
	var kb []byte
	for p := 1; p < nparts; p++ {
		for _, r := range fetched[p].Data {
			if r[0].IsNull() {
				continue
			}
			kb = r[0].AppendKey(kb[:0])
			b := buckets[string(kb)]
			if b == nil {
				b = make([][]relstore.Row, nparts)
				buckets[string(kb)] = b
			}
			b[p] = append(b[p], r)
		}
	}

	out := make([]relstore.Row, 0, len(fetched[0].Data))
	var slab []relstore.Value
	match := make([][]relstore.Row, nparts)
	pick := make([]int, nparts)
rows:
	for i, r0 := range fetched[0].Data {
		match[0] = fetched[0].Data[i : i+1]
		if nparts > 1 {
			if r0[0].IsNull() {
				continue
			}
			kb = r0[0].AppendKey(kb[:0])
			b := buckets[string(kb)]
			for p := 1; p < nparts; p++ {
				if b == nil || len(b[p]) == 0 {
					continue rows
				}
				match[p] = b[p]
			}
		}
		clear(pick)
		for {
			if len(slab) < arity {
				// Output rows are carved from shared slabs, one allocation
				// per up to 256 rows instead of one per row.
				slab = make([]relstore.Value, arity*min(256, len(fetched[0].Data)-i))
			}
			nr := relstore.Row(slab[:arity:arity])
			slab = slab[arity:]
			for c := range nr {
				nr[c] = match[srcPart[c]][pick[srcPart[c]]][srcCol[c]]
			}
			out = append(out, nr)
			// Advance the odometer over the matches, the last part varying
			// fastest; part 0 holds the single row being walked.
			p := nparts - 1
			for ; p >= 0; p-- {
				if pick[p]++; pick[p] < len(match[p]) {
					break
				}
				pick[p] = 0
			}
			if p < 0 {
				break
			}
		}
	}
	return &relstore.Rows{Schema: schema, Data: out}, nil
}

// Update implements Layout: the change lands in whichever part table holds
// the column.
func (s *Split) Update(db *relstore.DB, form FormInfo, key relstore.Value, col string, v relstore.Value) (int, error) {
	parts, err := s.partition(form)
	if err != nil {
		return 0, err
	}
	for i, part := range parts {
		for _, name := range part {
			if name != col {
				continue
			}
			t, err := db.Table(partTable(form, i))
			if err != nil {
				return 0, err
			}
			ci := t.Schema().Index(col)
			return t.Update(relstore.Eq(form.KeyColumn, key), func(r relstore.Row) relstore.Row {
				r[ci] = v
				return r
			})
		}
	}
	return 0, fmt.Errorf("patterns: split update: no column %q", col)
}

// PhysicalTables implements Layout.
func (s *Split) PhysicalTables(form FormInfo) []string {
	parts, err := s.partition(form)
	if err != nil {
		return nil
	}
	out := make([]string, len(parts))
	for i := range parts {
		out[i] = partTable(form, i)
	}
	return out
}
