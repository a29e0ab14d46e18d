package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// Rows is an immutable, materialized query result: a schema plus data.
type Rows struct {
	Schema *Schema
	Data   []Row
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// Clone deep-copies the result.
func (r *Rows) Clone() *Rows {
	data := make([]Row, len(r.Data))
	for i, row := range r.Data {
		data[i] = row.Clone()
	}
	return &Rows{Schema: r.Schema, Data: data}
}

// Column returns all values of the named column in row order.
func (r *Rows) Column(name string) ([]Value, error) {
	i := r.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("relstore: no column %q", name)
	}
	out := make([]Value, len(r.Data))
	for j, row := range r.Data {
		out[j] = row[i]
	}
	return out, nil
}

// ParallelRowKeys computes fn over every row chunk-parallel, in row order.
// It is the batch kernel behind multiset comparisons and group-key
// extraction: key-string building dominates those paths, and each row's key
// is independent, so the pool can fan it out.
func ParallelRowKeys(data []Row, fn func(Row) string) []string {
	keys := make([]string, len(data))
	bounds := chunkBounds(len(data))
	runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		for i := lo; i < hi; i++ {
			keys[i] = fn(data[i])
		}
		return nil
	})
	return keys
}

// EqualUnordered reports whether two results contain the same multiset of
// rows over identical schemas, ignoring order. Used by the Hypothesis-3
// equivalence tests (compiled ETL ≡ direct evaluation) and the columnar
// equivalence harness. The comparison sorts each side's row-key strings and
// walks them pairwise — O(n log n) regardless of key collisions, where the
// previous map-of-counts bucketed colliding keys — and the key extraction
// itself runs chunk-parallel.
func (r *Rows) EqualUnordered(o *Rows) bool {
	if !r.Schema.Equal(o.Schema) || len(r.Data) != len(o.Data) {
		return false
	}
	ka := ParallelRowKeys(r.Data, Row.Key)
	kb := ParallelRowKeys(o.Data, Row.Key)
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// Format renders the result as an aligned text table for CLI output.
func (r *Rows) Format() string {
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.Data))
	for j, row := range r.Data {
		cells[j] = make([]string, len(row))
		for i, v := range row {
			s := v.Display()
			cells[j][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(f)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(f)))
		}
		sb.WriteByte('\n')
	}
	writeRow(names)
	seps := make([]string, len(names))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	writeRow(seps)
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}

// Select returns the rows satisfying pred (nil pred keeps everything). The
// predicate evaluates columnar: each chunk builds vectors for the columns
// the predicate references and runs typed comparison kernels over them,
// chunks fanning out across the worker pool; the surviving rows are gathered
// in input order, so the result is identical to a row-at-a-time scan.
func Select(in *Rows, pred Pred) (*Rows, error) {
	opSelect.Inc()
	mask, err := predMask(pred, in)
	if err != nil {
		return nil, err
	}
	out := make([]Row, 0, len(in.Data))
	for i, keep := range mask {
		if keep {
			out = append(out, in.Data[i])
		}
	}
	return &Rows{Schema: in.Schema, Data: out}, nil
}

// Project keeps the named columns in the given order. Naming every column
// in schema order is the identity: the input rows come back as they are,
// in a slice capped so an append cannot write into the input's backing
// array.
func Project(in *Rows, names ...string) (*Rows, error) {
	opProject.Inc()
	if isIdentity(in.Schema, names) {
		n := len(in.Data)
		return &Rows{Schema: in.Schema, Data: in.Data[:n:n]}, nil
	}
	schema, err := in.Schema.Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = in.Schema.Index(n)
	}
	out := make([]Row, len(in.Data))
	bounds := chunkBounds(len(in.Data))
	runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		for j := lo; j < hi; j++ {
			row := in.Data[j]
			nr := make(Row, len(idx))
			for i, k := range idx {
				nr[i] = row[k]
			}
			out[j] = nr
		}
		return nil
	})
	return &Rows{Schema: schema, Data: out}, nil
}

// isIdentity reports whether names lists every column of s in schema order.
func isIdentity(s *Schema, names []string) bool {
	if len(names) != len(s.Columns) {
		return false
	}
	for i, c := range s.Columns {
		if names[i] != c.Name {
			return false
		}
	}
	return true
}

// Derivation names one computed output column.
type Derivation struct {
	Name string
	Type Kind
	Expr Expr
}

// DeriveSchema is the output schema Derive produces for the derivations.
func DeriveSchema(derivs []Derivation) (*Schema, error) {
	cols := make([]Column, len(derivs))
	for i, d := range derivs {
		cols[i] = Column{Name: d.Name, Type: d.Type}
	}
	return NewSchema(cols...)
}

// DeriveRow evaluates the derivations over one row — the unit of work Derive
// applies per tuple, exposed so callers with a poison-row path can isolate a
// single failing tuple instead of losing the whole relation.
func DeriveRow(derivs []Derivation, row Row, schema *Schema) (Row, error) {
	nr := make(Row, len(derivs))
	for i, d := range derivs {
		v, err := d.Expr.Eval(row, schema)
		if err != nil {
			return nil, fmt.Errorf("derive %s: %w", d.Name, err)
		}
		if !v.IsNull() && d.Type != KindNull && v.Kind() != d.Type {
			v, err = Coerce(v, d.Type)
			if err != nil {
				return nil, fmt.Errorf("derive %s: %w", d.Name, err)
			}
		}
		nr[i] = v
	}
	return nr, nil
}

// Derive computes a new relation whose columns are the given derivations
// evaluated over each input row (a generalized projection; SELECT exprs).
// Rows are independent, so derivation evaluation is chunked across the
// worker pool; output positions are fixed up front, keeping order exact.
func Derive(in *Rows, derivs ...Derivation) (*Rows, error) {
	opDerive.Inc()
	schema, err := DeriveSchema(derivs)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(in.Data))
	bounds := chunkBounds(len(in.Data))
	err = runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		for j := lo; j < hi; j++ {
			nr, err := DeriveRow(derivs, in.Data[j], in.Schema)
			if err != nil {
				return err
			}
			out[j] = nr
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// Extend appends computed columns to the input relation.
func Extend(in *Rows, derivs ...Derivation) (*Rows, error) {
	opExtend.Inc()
	extra := make([]Column, len(derivs))
	for i, d := range derivs {
		extra[i] = Column{Name: d.Name, Type: d.Type}
	}
	schema, err := in.Schema.Append(extra...)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(in.Data))
	bounds := chunkBounds(len(in.Data))
	err = runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		for j := lo; j < hi; j++ {
			row := in.Data[j]
			nr := make(Row, 0, schema.Arity())
			nr = append(nr, row...)
			for _, d := range derivs {
				v, err := d.Expr.Eval(row, in.Schema)
				if err != nil {
					return fmt.Errorf("extend %s: %w", d.Name, err)
				}
				if !v.IsNull() && d.Type != KindNull && v.Kind() != d.Type {
					v, err = Coerce(v, d.Type)
					if err != nil {
						return fmt.Errorf("extend %s: %w", d.Name, err)
					}
				}
				nr = append(nr, v)
			}
			out[j] = nr
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// Rename renames a column.
func Rename(in *Rows, from, to string) (*Rows, error) {
	opRename.Inc()
	schema, err := in.Schema.Rename(from, to)
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: schema, Data: in.Data}, nil
}

// joinSchema builds the output schema of a join, prefixing colliding right
// column names.
func joinSchema(left, right *Schema, rightPrefix string) (*Schema, error) {
	cols := make([]Column, 0, left.Arity()+right.Arity())
	cols = append(cols, left.Columns...)
	for _, c := range right.Columns {
		name := c.Name
		if left.Has(name) {
			name = rightPrefix + "_" + name
		}
		cols = append(cols, Column{Name: name, Type: c.Type, NotNull: c.NotNull})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("relstore: join: %w", err)
	}
	return schema, nil
}

// joinKeys extracts the join-key strings of col for every row chunk-parallel;
// a NULL key yields "" (NULL never joins, and Value.Key never returns "").
func joinKeys(data []Row, ci int) []string {
	return ParallelRowKeys(data, func(r Row) string {
		if r[ci].IsNull() {
			return ""
		}
		return r[ci].Key()
	})
}

// Join performs a hash equi-join on leftCol = rightCol. Columns of the right
// relation that collide with left names are prefixed with the right prefix
// (prefix + "_"). The join is an inner join. Key extraction on both sides is
// chunked across the pool; the build hashes the right side in row order and
// the probe fans left chunks out in parallel, concatenating per-chunk output
// in chunk order — the exact row order a sequential nested probe produces.
func Join(left, right *Rows, leftCol, rightCol, rightPrefix string) (*Rows, error) {
	opJoin.Inc()
	li := left.Schema.Index(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("relstore: join: no left column %q", leftCol)
	}
	ri := right.Schema.Index(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("relstore: join: no right column %q", rightCol)
	}
	schema, err := joinSchema(left.Schema, right.Schema, rightPrefix)
	if err != nil {
		return nil, err
	}
	rightKeys := joinKeys(right.Data, ri)
	buckets := make(map[string][]int, len(right.Data))
	for i, k := range rightKeys {
		if k != "" {
			buckets[k] = append(buckets[k], i)
		}
	}
	leftKeys := joinKeys(left.Data, li)
	bounds := chunkBounds(len(left.Data))
	chunkOut := make([][]Row, len(bounds))
	runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		var out []Row
		for j := lo; j < hi; j++ {
			k := leftKeys[j]
			if k == "" {
				continue
			}
			lrow := left.Data[j]
			for _, rj := range buckets[k] {
				nr := make(Row, 0, schema.Arity())
				nr = append(nr, lrow...)
				nr = append(nr, right.Data[rj]...)
				out = append(out, nr)
			}
		}
		chunkOut[ci] = out
		return nil
	})
	var out []Row
	for _, rows := range chunkOut {
		out = append(out, rows...)
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// LeftJoin is Join but keeps unmatched left rows with NULLs on the right.
func LeftJoin(left, right *Rows, leftCol, rightCol, rightPrefix string) (*Rows, error) {
	opLeftJoin.Inc()
	inner, err := Join(left, right, leftCol, rightCol, rightPrefix)
	if err != nil {
		return nil, err
	}
	li := left.Schema.Index(leftCol)
	ri := right.Schema.Index(rightCol)
	matched := make(map[string]bool, len(right.Data))
	for _, k := range joinKeys(right.Data, ri) {
		if k != "" {
			matched[k] = true
		}
	}
	for _, lrow := range left.Data {
		if !lrow[li].IsNull() && matched[lrow[li].Key()] {
			continue
		}
		nr := make(Row, 0, inner.Schema.Arity())
		nr = append(nr, lrow...)
		for i := 0; i < right.Schema.Arity(); i++ {
			nr = append(nr, Null())
		}
		inner.Data = append(inner.Data, nr)
	}
	return inner, nil
}

// UnionAll concatenates relations with identical schemas (bag semantics).
// MultiClass "simply unions together the results of ETL workflows from
// different contributors" — this is that union.
func UnionAll(rs ...*Rows) (*Rows, error) {
	opUnionAll.Inc()
	if len(rs) == 0 {
		return nil, fmt.Errorf("relstore: union of nothing")
	}
	schema := rs[0].Schema
	var out []Row
	for _, r := range rs {
		if !r.Schema.Equal(schema) {
			return nil, fmt.Errorf("relstore: union schema mismatch: (%s) vs (%s)", schema.NameList(), r.Schema.NameList())
		}
		out = append(out, r.Data...)
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// Union is UnionAll followed by Distinct (set semantics).
func Union(rs ...*Rows) (*Rows, error) {
	opUnion.Inc()
	all, err := UnionAll(rs...)
	if err != nil {
		return nil, err
	}
	return Distinct(all), nil
}

// Distinct removes duplicate rows, keeping first occurrences in order. The
// whole-row key strings the dedupe hashes on are computed chunk-parallel;
// only the ordered membership pass is sequential.
func Distinct(in *Rows) *Rows {
	opDistinct.Inc()
	keys := ParallelRowKeys(in.Data, Row.Key)
	seen := make(map[string]bool, len(in.Data))
	out := make([]Row, 0, len(in.Data))
	for i, row := range in.Data {
		if seen[keys[i]] {
			continue
		}
		seen[keys[i]] = true
		out = append(out, row)
	}
	return &Rows{Schema: in.Schema, Data: out}
}

// SortBy orders rows by the named columns ascending (stable). The sort runs
// over an index permutation against column vectors of the key columns —
// column-major access for the comparator — and gathers rows at the end.
func SortBy(in *Rows, cols ...string) (*Rows, error) {
	opSortBy.Inc()
	idx := make([]int, len(cols))
	for i, c := range cols {
		k := in.Schema.Index(c)
		if k < 0 {
			return nil, fmt.Errorf("relstore: sort: no column %q", c)
		}
		idx[i] = k
	}
	n := len(in.Data)
	keyVecs := make([]*Vector, len(idx))
	if n > 0 {
		b := BatchFromRows(&Rows{Schema: in.Schema, Data: in.Data}, 0, n, idx)
		for i, k := range idx {
			keyVecs[i] = b.Vecs[k]
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for _, v := range keyVecs {
			c := v.Value(perm[a]).Compare(v.Value(perm[b]))
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]Row, n)
	for i, p := range perm {
		out[i] = in.Data[p]
	}
	return &Rows{Schema: in.Schema, Data: out}, nil
}

// Pivot converts a wide relation to Entity-Attribute-Value form: for each
// input row, one output row per value column, keyed by the key columns.
// (The Generic design pattern of Table 1 stores data this way.) Each input
// row expands independently, so chunks fan out across the pool and
// concatenate in chunk order.
func Pivot(in *Rows, keyCols []string, attrCol, valCol string) (*Rows, error) {
	opPivot.Inc()
	keyIdx := make([]int, len(keyCols))
	cols := make([]Column, 0, len(keyCols)+2)
	for i, k := range keyCols {
		j := in.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("relstore: pivot: no key column %q", k)
		}
		keyIdx[i] = j
		cols = append(cols, in.Schema.Columns[j])
	}
	cols = append(cols, Column{Name: attrCol, Type: KindString, NotNull: true})
	cols = append(cols, Column{Name: valCol, Type: KindString})
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	isKey := make(map[int]bool, len(keyIdx))
	for _, j := range keyIdx {
		isKey[j] = true
	}
	bounds := chunkBounds(len(in.Data))
	chunkOut := make([][]Row, len(bounds))
	runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		var out []Row
		for r := lo; r < hi; r++ {
			row := in.Data[r]
			for j, c := range in.Schema.Columns {
				if isKey[j] {
					continue
				}
				nr := make(Row, 0, schema.Arity())
				for _, k := range keyIdx {
					nr = append(nr, row[k])
				}
				nr = append(nr, Str(c.Name))
				if row[j].IsNull() {
					nr = append(nr, Null())
				} else {
					nr = append(nr, Str(row[j].Display()))
				}
				out = append(out, nr)
			}
		}
		chunkOut[ci] = out
		return nil
	})
	var out []Row
	for _, rows := range chunkOut {
		out = append(out, rows...)
	}
	return &Rows{Schema: schema, Data: out}, nil
}

// groupKeys extracts the concatenated key strings of keyIdx chunk-parallel.
func groupKeys(data []Row, keyIdx []int) []string {
	return ParallelRowKeys(data, func(row Row) string {
		var buf [64]byte
		b := buf[:0]
		for _, k := range keyIdx {
			b = append(row[k].AppendKey(b), 0x1f)
		}
		return string(b)
	})
}

// Unpivot converts an Entity-Attribute-Value relation back to wide form.
// attrs names the output columns and their types; rows sharing the same key
// tuple fold into one output row. Attributes absent for a key become NULL.
// The paper's Join pattern "executes an un-pivot operation, either in code
// or SQL if the operator exists in the DBMS"; relstore provides it natively.
// The group-key extraction is chunked across the pool; the ordered fold that
// assigns attributes into their key's row stays sequential, preserving
// first-appearance output order.
func Unpivot(in *Rows, keyCols []string, attrCol, valCol string, attrs []Column) (*Rows, error) {
	opUnpivot.Inc()
	keyIdx := make([]int, len(keyCols))
	cols := make([]Column, 0, len(keyCols)+len(attrs))
	for i, k := range keyCols {
		j := in.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("relstore: unpivot: no key column %q", k)
		}
		keyIdx[i] = j
		cols = append(cols, in.Schema.Columns[j])
	}
	ai := in.Schema.Index(attrCol)
	vi := in.Schema.Index(valCol)
	if ai < 0 || vi < 0 {
		return nil, fmt.Errorf("relstore: unpivot: missing attr/value columns %q/%q", attrCol, valCol)
	}
	attrPos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		// Attribute columns in unpivot output are always nullable: a key may
		// simply lack that attribute row.
		cols = append(cols, Column{Name: a.Name, Type: a.Type})
		attrPos[a.Name] = len(keyCols) + i
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	keys := groupKeys(in.Data, keyIdx)
	rowFor := make(map[string]int)
	var order []Row
	for i, row := range in.Data {
		key := keys[i]
		pos, ok := rowFor[key]
		if !ok {
			nr := make(Row, schema.Arity())
			for i, k := range keyIdx {
				nr[i] = row[k]
			}
			pos = len(order)
			order = append(order, nr)
			rowFor[key] = pos
		}
		attr := row[ai]
		if attr.IsNull() {
			continue
		}
		p, ok := attrPos[attr.Display()]
		if !ok {
			continue // attribute not requested
		}
		v := row[vi]
		if !v.IsNull() {
			coerced, err := Coerce(v, schema.Columns[p].Type)
			if err != nil {
				return nil, fmt.Errorf("relstore: unpivot %s: %w", attr.Display(), err)
			}
			v = coerced
		}
		order[pos][p] = v
	}
	return &Rows{Schema: schema, Data: order}, nil
}

// AggKind enumerates aggregate functions for GroupBy.
type AggKind uint8

// Aggregates needed by the study funnels (counts, sums, averages).
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// Aggregate names one aggregated output column over a source column (ignored
// for AggCount).
type Aggregate struct {
	Kind AggKind
	Col  string
	As   string
}

// GroupBy groups rows by the key columns and computes aggregates per group.
// Output order follows first appearance of each group.
func GroupBy(in *Rows, keyCols []string, aggs ...Aggregate) (*Rows, error) {
	opGroupBy.Inc()
	keyIdx := make([]int, len(keyCols))
	cols := make([]Column, 0, len(keyCols)+len(aggs))
	for i, k := range keyCols {
		j := in.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("relstore: group: no key column %q", k)
		}
		keyIdx[i] = j
		cols = append(cols, in.Schema.Columns[j])
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		t := KindFloat
		if a.Kind == AggCount {
			t = KindInt
			aggIdx[i] = -1
		} else {
			j := in.Schema.Index(a.Col)
			if j < 0 {
				return nil, fmt.Errorf("relstore: group: no aggregate column %q", a.Col)
			}
			aggIdx[i] = j
			if (a.Kind == AggMin || a.Kind == AggMax) && in.Schema.Columns[j].Type != KindFloat {
				t = in.Schema.Columns[j].Type
			}
		}
		name := a.As
		if name == "" {
			name = fmt.Sprintf("agg%d", i)
		}
		cols = append(cols, Column{Name: name, Type: t})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	type acc struct {
		count int64
		sum   float64
		min   Value
		max   Value
		n     int64
	}
	rowKeys := groupKeys(in.Data, keyIdx)
	groups := make(map[string][]acc)
	keys := make(map[string]Row)
	var order []string
	for ri, row := range in.Data {
		key := rowKeys[ri]
		accs, ok := groups[key]
		if !ok {
			keyRow := make(Row, len(keyIdx))
			for i, k := range keyIdx {
				keyRow[i] = row[k]
			}
			accs = make([]acc, len(aggs))
			keys[key] = keyRow
			order = append(order, key)
		}
		for i, a := range aggs {
			accs[i].count++
			if a.Kind == AggCount {
				continue
			}
			v := row[aggIdx[i]]
			if v.IsNull() {
				continue
			}
			accs[i].n++
			if v.IsNumeric() {
				accs[i].sum += v.AsFloat()
			}
			if accs[i].min.IsNull() || v.Compare(accs[i].min) < 0 {
				accs[i].min = v
			}
			if accs[i].max.IsNull() || v.Compare(accs[i].max) > 0 {
				accs[i].max = v
			}
		}
		groups[key] = accs
	}
	out := make([]Row, 0, len(order))
	for _, key := range order {
		accs := groups[key]
		nr := make(Row, 0, schema.Arity())
		nr = append(nr, keys[key]...)
		for i, a := range aggs {
			switch a.Kind {
			case AggCount:
				nr = append(nr, Int(accs[i].count))
			case AggSum:
				nr = append(nr, Float(accs[i].sum))
			case AggMin:
				nr = append(nr, accs[i].min)
			case AggMax:
				nr = append(nr, accs[i].max)
			case AggAvg:
				if accs[i].n == 0 {
					nr = append(nr, Null())
				} else {
					nr = append(nr, Float(accs[i].sum/float64(accs[i].n)))
				}
			}
		}
		out = append(out, nr)
	}
	return &Rows{Schema: schema, Data: out}, nil
}
