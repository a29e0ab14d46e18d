package relstore

import (
	"fmt"
	"sort"
	"sync"
)

// Table is a named, mutable relation with optional hash indexes. Tables are
// safe for concurrent use.
//
// Stored rows are immutable and shared: Insert and Update copy rows on the
// way in, mutations replace or drop whole rows and never write into one, so
// every read path hands out a fresh []Row whose rows are the stored ones
// instead of copies. Callers must treat rows they read as read-only.
//
// Indexes reference rows through stable row IDs rather than storage
// positions: ids maps a position to its row's ID and pos maps an ID back to
// the current position. Deleting rows therefore only edits the doomed rows'
// own buckets and renumbers the pos array — an integer fix-up — instead of
// rewriting every bucket of every index.
type Table struct {
	name   string
	schema *Schema

	mu      sync.RWMutex
	rows    []Row
	ids     []int                 // position -> stable row ID, parallel to rows
	pos     []int                 // row ID -> current position, -1 once deleted
	freeIDs []int                 // deleted IDs available for reuse
	indexes map[string]*hashIndex // column name -> index
}

type hashIndex struct {
	col     int
	buckets map[string][]int // value key -> stable row IDs
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema, indexes: make(map[string]*hashIndex)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert validates and appends a row. The row is cloned; the caller may
// reuse its slice.
func (t *Table) Insert(r Row) error {
	if err := t.schema.Validate(r); err != nil {
		return fmt.Errorf("insert into %s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := len(t.rows)
	t.rows = append(t.rows, r.Clone())
	var id int
	if n := len(t.freeIDs); n > 0 {
		id = t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
		t.pos[id] = p
	} else {
		id = len(t.pos)
		t.pos = append(t.pos, p)
	}
	t.ids = append(t.ids, id)
	for _, idx := range t.indexes {
		k := r[idx.col].Key()
		idx.buckets[k] = append(idx.buckets[k], id)
	}
	return nil
}

// InsertAll inserts each row, stopping at the first error.
func (t *Table) InsertAll(rows []Row) error {
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// InsertMap inserts a row given as a column-name→value map; absent nullable
// columns become NULL.
func (t *Table) InsertMap(m map[string]Value) error {
	r := make(Row, t.schema.Arity())
	for name, v := range m {
		i := t.schema.Index(name)
		if i < 0 {
			return fmt.Errorf("insert into %s: no column %q", t.name, name)
		}
		r[i] = v
	}
	return t.Insert(r)
}

// Update applies fn to every row matching pred, replacing the stored row
// with the returned one. It returns the number of rows updated. Indexes are
// rebuilt if any update occurred.
func (t *Table) Update(pred Pred, fn func(Row) Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i, r := range t.rows {
		ok, err := evalPred(pred, r, t.schema)
		if err != nil {
			return n, err
		}
		if !ok {
			continue
		}
		nr := fn(r.Clone())
		if err := t.schema.Validate(nr); err != nil {
			return n, fmt.Errorf("update %s: %w", t.name, err)
		}
		t.rows[i] = nr
		n++
	}
	if n > 0 {
		t.rebuildIndexesLocked()
	}
	return n, nil
}

// Delete removes rows matching pred and returns how many were removed.
// Candidate rows come from a hash-index probe when the predicate has an
// indexable equality or IN conjunct. Because indexes hold stable row IDs,
// deleting k rows costs O(k) bucket edits plus an integer renumbering of the
// positions after the first hole — the rest of the index is untouched, so
// small deletes from a large table stay cheap no matter how many rows or
// buckets the table has. Row positions are decided before any mutation, so a
// predicate error leaves the table untouched.
func (t *Table) Delete(pred Pred) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	var doomed []int
	doom := func(p int, pred Pred) error {
		ok, err := evalPred(pred, t.rows[p], t.schema)
		if ok {
			doomed = append(doomed, p)
		}
		return err
	}
	if candidates, rest, ok := t.indexProbeLocked(pred); ok {
		for _, p := range candidates {
			if err := doom(p, rest); err != nil {
				return 0, err
			}
		}
	} else {
		for p := range t.rows {
			if err := doom(p, pred); err != nil {
				return 0, err
			}
		}
	}
	if len(doomed) == 0 {
		return 0, nil
	}
	sort.Ints(doomed)

	// Remove each doomed row's ID from its bucket in every index and retire
	// the ID. Only the doomed rows' buckets are touched.
	for _, p := range doomed {
		id := t.ids[p]
		r := t.rows[p]
		for _, idx := range t.indexes {
			k := r[idx.col].Key()
			b := idx.buckets[k]
			for i, bid := range b {
				if bid == id {
					b[i] = b[len(b)-1]
					b = b[:len(b)-1]
					break
				}
			}
			if len(b) == 0 {
				delete(idx.buckets, k)
			} else {
				idx.buckets[k] = b
			}
		}
		t.pos[id] = -1
		t.freeIDs = append(t.freeIDs, id)
	}

	// Compact rows and ids in place — entries before the first hole stay
	// put, the rest slide left — and point the surviving IDs at their new
	// positions. Pure integer work, no allocation, no re-hashing.
	w := doomed[0]
	di := 0
	for p := doomed[0]; p < len(t.rows); p++ {
		if di < len(doomed) && doomed[di] == p {
			di++
			continue
		}
		t.rows[w] = t.rows[p]
		t.ids[w] = t.ids[p]
		t.pos[t.ids[w]] = w
		w++
	}
	for p := w; p < len(t.rows); p++ {
		t.rows[p] = nil // release for GC
	}
	t.rows = t.rows[:w]
	t.ids = t.ids[:w]
	return len(doomed), nil
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.ids = nil
	t.pos = nil
	t.freeIDs = nil
	t.rebuildIndexesLocked()
}

// CreateIndex builds a hash index on the named column. Creating an index
// that already exists is a no-op.
func (t *Table) CreateIndex(col string) error {
	i := t.schema.Index(col)
	if i < 0 {
		return fmt.Errorf("relstore: index on %s: no column %q", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	idx := &hashIndex{col: i, buckets: make(map[string][]int)}
	for p, r := range t.rows {
		k := r[i].Key()
		idx.buckets[k] = append(idx.buckets[k], t.ids[p])
	}
	t.indexes[col] = idx
	return nil
}

// HasIndex reports whether a hash index exists on the column.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[col]
	return ok
}

func (t *Table) rebuildIndexesLocked() {
	for col, idx := range t.indexes {
		i := idx.col
		nb := make(map[string][]int)
		for p, r := range t.rows {
			k := r[i].Key()
			nb[k] = append(nb[k], t.ids[p])
		}
		t.indexes[col] = &hashIndex{col: i, buckets: nb}
	}
}

// indexProbeLocked recognizes a predicate with an indexable equality or IN
// conjunct and returns, in storage order, the positions of the rows that
// satisfy that conjunct, plus the residual predicate the caller still has
// to evaluate. ok is false when no conjunct can use an index. Callers must
// hold t.mu.
func (t *Table) indexProbeLocked(pred Pred) (positions []int, rest Pred, ok bool) {
	if col, v, rest, ok := t.indexableEqLocked(pred); ok {
		return t.probeLocked(col, []Value{v}), rest, true
	}
	if col, vs, rest, ok := t.indexableInLocked(pred); ok {
		return t.probeLocked(col, vs), rest, true
	}
	return nil, nil, false
}

// probeLocked returns, in storage order — the order a full scan yields —
// the positions of the rows whose indexed column col is Equal to one of vs.
// Equal values share a key but a shared key does not imply Equal (large
// integers can collide), so every bucket candidate is re-checked. Callers
// must hold t.mu.
func (t *Table) probeLocked(col string, vs []Value) []int {
	idx := t.indexes[col]
	byKey := make(map[string][]Value, len(vs))
	for _, v := range vs {
		k := v.Key()
		byKey[k] = append(byKey[k], v)
	}
	var ps []int
	for k, want := range byKey {
		for _, id := range idx.buckets[k] {
			p := t.pos[id]
			got := t.rows[p][idx.col]
			for _, w := range want {
				if got.Equal(w) {
					ps = append(ps, p)
					break
				}
			}
		}
	}
	sort.Ints(ps)
	return ps
}

// Lookup returns the rows whose column equals v, shared with the table (see
// Table). It probes a hash index on the column when one exists and scans
// otherwise.
func (t *Table) Lookup(col string, v Value) ([]Row, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: lookup on %s: no column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.indexes[col]; ok {
		positions := t.probeLocked(col, []Value{v})
		out := make([]Row, len(positions))
		for i, p := range positions {
			out[i] = t.rows[p]
		}
		return out, nil
	}
	var out []Row
	for _, r := range t.rows {
		if r[ci].Equal(v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Scan calls fn for every row. The row passed to fn must not be mutated.
// Scanning stops early if fn returns false.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !fn(r) {
			return
		}
	}
}

// Select returns a fresh slice of the rows matching pred (nil keeps
// everything); the rows themselves are shared with the table (see Table).
// When the predicate has an equality or IN conjunct on a hash-indexed
// column, the index probes the candidate rows instead of scanning, and the
// result is the one the scan would give, in the same order.
func (t *Table) Select(pred Pred) (*Rows, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if positions, rest, ok := t.indexProbeLocked(pred); ok {
		out := make([]Row, 0, len(positions))
		for _, p := range positions {
			r := t.rows[p]
			keep, err := evalPred(rest, r, t.schema)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, r)
			}
		}
		return &Rows{Schema: t.schema, Data: out}, nil
	}
	// No usable index: run the columnar scan kernel over the stored rows
	// (chunk-parallel mask, then an ordered gather). This is the path
	// layout-level predicate pushdown lands on — serve's extract filters
	// arrive here as Preds, not post-hoc row filters.
	in := &Rows{Schema: t.schema, Data: t.rows}
	mask, err := predMask(pred, in)
	if err != nil {
		return nil, err
	}
	var out []Row
	for i, keep := range mask {
		if keep {
			out = append(out, t.rows[i])
		}
	}
	return &Rows{Schema: t.schema, Data: out}, nil
}

// indexableEqLocked recognizes predicates of the shape "col = literal [AND rest]"
// where col carries a hash index, returning the probe and the residual
// predicate. Callers must hold t.mu.
func (t *Table) indexableEqLocked(pred Pred) (string, Value, Pred, bool) {
	matchCmp := func(p Pred) (string, Value, bool) {
		c, ok := p.(CmpPred)
		if !ok || c.Op != CmpEq {
			return "", Value{}, false
		}
		if col, ok := c.L.(ColRef); ok {
			if lit, ok := c.R.(LitExpr); ok && !lit.V.IsNull() {
				if _, indexed := t.indexes[col.Name]; indexed {
					return col.Name, lit.V, true
				}
			}
		}
		if col, ok := c.R.(ColRef); ok {
			if lit, ok := c.L.(LitExpr); ok && !lit.V.IsNull() {
				if _, indexed := t.indexes[col.Name]; indexed {
					return col.Name, lit.V, true
				}
			}
		}
		return "", Value{}, false
	}
	if col, v, ok := matchCmp(pred); ok {
		return col, v, True, true
	}
	if and, ok := pred.(AndPred); ok {
		for i, sub := range and.Ps {
			if col, v, ok := matchCmp(sub); ok {
				rest := make([]Pred, 0, len(and.Ps)-1)
				rest = append(rest, and.Ps[:i]...)
				rest = append(rest, and.Ps[i+1:]...)
				return col, v, And(rest...), true
			}
		}
	}
	return "", Value{}, nil, false
}

// indexableInLocked recognizes predicates of the shape "col IN (literals) [AND
// rest]" where col carries a hash index and every literal is non-NULL,
// returning the probe values and the residual predicate. Callers must hold
// t.mu.
func (t *Table) indexableInLocked(pred Pred) (string, []Value, Pred, bool) {
	matchIn := func(p Pred) (string, []Value, bool) {
		in, ok := p.(InPred)
		if !ok {
			return "", nil, false
		}
		col, ok := in.E.(ColRef)
		if !ok {
			return "", nil, false
		}
		if _, indexed := t.indexes[col.Name]; !indexed {
			return "", nil, false
		}
		for _, v := range in.List {
			if v.IsNull() {
				return "", nil, false
			}
		}
		return col.Name, in.List, true
	}
	if col, vs, ok := matchIn(pred); ok {
		return col, vs, True, true
	}
	if and, ok := pred.(AndPred); ok {
		for i, sub := range and.Ps {
			if col, vs, ok := matchIn(sub); ok {
				rest := make([]Pred, 0, len(and.Ps)-1)
				rest = append(rest, and.Ps[:i]...)
				rest = append(rest, and.Ps[i+1:]...)
				return col, vs, And(rest...), true
			}
		}
	}
	return "", nil, nil, false
}

// ScanSince calls fn, in storage order, for every row whose value in col
// sorts strictly after the given value. It assumes rows were appended in
// non-decreasing col order — the contract of append-only change logs stamped
// with a monotone sequence — and binary-searches for the first qualifying
// row, so the cost is O(log n + rows yielded) rather than a full scan. The
// row passed to fn must not be mutated or retained; scanning stops early if
// fn returns false.
func (t *Table) ScanSince(col string, after Value, fn func(Row) bool) error {
	ci := t.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("relstore: scan-since on %s: no column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo := sort.Search(len(t.rows), func(i int) bool {
		return t.rows[i][ci].Compare(after) > 0
	})
	for _, r := range t.rows[lo:] {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// Rows returns a snapshot of the whole table: a fresh slice whose rows are
// shared with the table (see Table).
func (t *Table) Rows() *Rows {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, len(t.rows))
	copy(out, t.rows)
	return &Rows{Schema: t.schema, Data: out}
}

// DB is a named collection of tables; it models one database instance
// (a contributor database, a temporary ETL database, or the warehouse).
type DB struct {
	name string

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB(name string) *DB {
	return &DB{name: name, tables: make(map[string]*Table)}
}

// Name returns the database name.
func (d *DB) Name() string { return d.name }

// CreateTable creates a new table, failing if the name is taken.
func (d *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[name]; exists {
		return nil, fmt.Errorf("relstore: table %q already exists in %s", name, d.name)
	}
	t := NewTable(name, schema)
	d.tables[name] = t
	return t, nil
}

// EnsureTable returns the existing table or creates it. If the table exists
// with a different schema, an error is returned.
func (d *DB) EnsureTable(name string, schema *Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, exists := d.tables[name]; exists {
		if !t.schema.Equal(schema) {
			return nil, fmt.Errorf("relstore: table %q exists with different schema", name)
		}
		return t, nil
	}
	t := NewTable(name, schema)
	d.tables[name] = t
	return t, nil
}

// Table returns the named table.
func (d *DB) Table(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q in %s", name, d.name)
	}
	return t, nil
}

// Has reports whether a table with the name exists.
func (d *DB) Has(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.tables[name]
	return ok
}

// Replace drops any table with the name and creates it afresh, holding
// rows under rows.Schema. Every row is validated first, so a failed Replace
// leaves the database unchanged. The new table adopts rows.Data without
// copying a row: the caller hands the slice and its rows over and must not
// modify them afterward.
func (d *DB) Replace(name string, rows *Rows) (*Table, error) {
	for _, r := range rows.Data {
		if err := rows.Schema.Validate(r); err != nil {
			return nil, fmt.Errorf("replace %s: %w", name, err)
		}
	}
	n := len(rows.Data)
	t := NewTable(name, rows.Schema)
	t.rows = rows.Data[:n:n]
	t.ids = make([]int, n)
	t.pos = make([]int, n)
	for i := range t.ids {
		t.ids[i] = i
		t.pos[i] = i
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tables[name] = t
	return t, nil
}

// Drop removes a table.
func (d *DB) Drop(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tables[name]; !ok {
		return fmt.Errorf("relstore: no table %q in %s", name, d.name)
	}
	delete(d.tables, name)
	return nil
}

// TableNames returns the table names in sorted order.
func (d *DB) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
