package relstore

import "fmt"

// Columnar predicate evaluation. Operators hand each chunk of a relation to
// evalPredChunk, which walks the predicate tree once per chunk instead of
// once per row: leaf predicates over plain column/literal operands run as
// typed loops over lazily-built column vectors, and only predicates the
// kernels cannot express (CASE guards, arithmetic comparands, nested
// sub-expressions) fall back to per-row evaluation — restricted to the rows
// still selected, so AND/OR short-circuiting keeps the row-at-a-time error
// semantics: a conjunct is never evaluated for a row an earlier conjunct
// already rejected.

// chunkCtx is one chunk of a relation under columnar evaluation: the source
// rows plus lazily-built vectors for the columns the predicate touches.
type chunkCtx struct {
	in     *Rows
	lo, hi int
	vecs   []*Vector
}

func newChunkCtx(in *Rows, lo, hi int) *chunkCtx {
	return &chunkCtx{in: in, lo: lo, hi: hi, vecs: make([]*Vector, in.Schema.Arity())}
}

// vec returns the vector for column ci, building it on first use.
func (c *chunkCtx) vec(ci int) *Vector {
	if c.vecs[ci] == nil {
		c.vecs[ci] = BatchFromRows(c.in, c.lo, c.hi, []int{ci}).Vecs[ci]
	}
	return c.vecs[ci]
}

func (c *chunkCtx) len() int { return c.hi - c.lo }

// evalPredChunk sets out[i] to pred(row lo+i) for every i with sel[i] true
// and to false elsewhere. sel and out may alias distinct slices of the same
// length as the chunk. A nil pred selects everything in sel.
func evalPredChunk(p Pred, c *chunkCtx, sel, out []bool) error {
	switch q := p.(type) {
	case nil:
		copy(out, sel)
		return nil
	case BoolLit:
		for i := range out {
			out[i] = sel[i] && q.V
		}
		return nil
	case AndPred:
		copy(out, sel)
		tmp := make([]bool, len(out))
		for _, sub := range q.Ps {
			if err := evalPredChunk(sub, c, out, tmp); err != nil {
				return err
			}
			copy(out, tmp)
		}
		return nil
	case OrPred:
		pending := make([]bool, len(sel))
		copy(pending, sel)
		for i := range out {
			out[i] = false
		}
		tmp := make([]bool, len(out))
		for _, sub := range q.Ps {
			if err := evalPredChunk(sub, c, pending, tmp); err != nil {
				return err
			}
			live := false
			for i := range tmp {
				if tmp[i] {
					out[i] = true
					pending[i] = false
				}
				live = live || pending[i]
			}
			if !live {
				break
			}
		}
		return nil
	case NotPred:
		tmp := make([]bool, len(out))
		if err := evalPredChunk(q.P, c, sel, tmp); err != nil {
			return err
		}
		for i := range out {
			out[i] = sel[i] && !tmp[i]
		}
		return nil
	case NullPred:
		if col, ok := q.E.(ColRef); ok {
			ci := c.in.Schema.Index(col.Name)
			if ci < 0 {
				return fmt.Errorf("relstore: unknown column %q in (%s)", col.Name, c.in.Schema.NameList())
			}
			v := c.vec(ci)
			for i := range out {
				out[i] = sel[i] && (v.Null(i) != q.Negate)
			}
			return nil
		}
		return evalPredRows(p, c, sel, out)
	case InPred:
		if col, ok := q.E.(ColRef); ok {
			ci := c.in.Schema.Index(col.Name)
			if ci < 0 {
				return fmt.Errorf("relstore: unknown column %q in (%s)", col.Name, c.in.Schema.NameList())
			}
			v := c.vec(ci)
			for i := range out {
				out[i] = false
				if !sel[i] {
					continue
				}
				val := v.Value(i)
				for _, cand := range q.List {
					if val.Equal(cand) {
						out[i] = true
						break
					}
				}
			}
			return nil
		}
		return evalPredRows(p, c, sel, out)
	case CmpPred:
		lv, lok := cmpOperand(q.L, c)
		rv, rok := cmpOperand(q.R, c)
		if lok && rok {
			return cmpKernel(q.Op, lv, rv, c, sel, out)
		}
		return evalPredRows(p, c, sel, out)
	default:
		return evalPredRows(p, c, sel, out)
	}
}

// evalPredRows is the per-row fallback over the selected rows of a chunk.
func evalPredRows(p Pred, c *chunkCtx, sel, out []bool) error {
	for i := range out {
		out[i] = false
		if !sel[i] {
			continue
		}
		ok, err := p.Eval(c.in.Data[c.lo+i], c.in.Schema)
		if err != nil {
			return err
		}
		out[i] = ok
	}
	return nil
}

// operand is a resolved comparison side: a column vector or a constant.
type operand struct {
	vec *Vector
	lit Value
}

func (o operand) value(i int) Value {
	if o.vec != nil {
		return o.vec.Value(i)
	}
	return o.lit
}

// cmpOperand resolves an expression to a kernel operand when it is a plain
// column reference or literal; anything else forces the row fallback.
func cmpOperand(e Expr, c *chunkCtx) (operand, bool) {
	switch t := e.(type) {
	case ColRef:
		ci := c.in.Schema.Index(t.Name)
		if ci < 0 {
			return operand{}, false
		}
		return operand{vec: c.vec(ci)}, true
	case LitExpr:
		return operand{lit: t.V}, true
	}
	return operand{}, false
}

// cmpKernel evaluates a comparison over resolved operands. The typed fast
// paths cover the dominant shapes — a pure int, float, or string vector
// against a non-NULL literal of the matching kind — and everything else goes
// through the exact Value semantics (Equal for =/<>, Compare for the ordered
// operators, NULLs collapsing to false).
func cmpKernel(op CmpOp, l, r operand, c *chunkCtx, sel, out []bool) error {
	// Fast path: pure typed vector vs literal. A NULL cell against the
	// non-NULL literal follows CmpPred semantics: <> holds (Equal is false),
	// every other operator does not.
	if l.vec != nil && r.vec == nil && l.vec.Pure() && !r.lit.IsNull() {
		v, lit := l.vec, r.lit
		null := op == CmpNe
		switch {
		case v.kind == KindInt && lit.Kind() == KindInt:
			y := lit.AsInt()
			for i := range out {
				switch {
				case !sel[i]:
					out[i] = false
				case v.Null(i):
					out[i] = null
				default:
					out[i] = intCmp(op, v.ints[i], y)
				}
			}
			return nil
		case v.kind == KindFloat && lit.IsNumeric(),
			v.kind == KindInt && lit.Kind() == KindFloat:
			y := lit.AsFloat()
			var xs func(i int) float64
			if v.kind == KindInt {
				xs = func(i int) float64 { return float64(v.ints[i]) }
			} else {
				xs = func(i int) float64 { return v.floats[i] }
			}
			for i := range out {
				switch {
				case !sel[i]:
					out[i] = false
				case v.Null(i):
					out[i] = null
				default:
					out[i] = floatCmp(op, xs(i), y)
				}
			}
			return nil
		case v.kind == KindString && lit.Kind() == KindString:
			y := lit.AsString()
			for i := range out {
				switch {
				case !sel[i]:
					out[i] = false
				case v.Null(i):
					out[i] = null
				default:
					out[i] = strCmp(op, v.strs[i], y)
				}
			}
			return nil
		}
	}
	// General path: exact Value semantics per selected row.
	for i := range out {
		out[i] = false
		if !sel[i] {
			continue
		}
		lv, rv := l.value(i), r.value(i)
		switch op {
		case CmpEq:
			out[i] = lv.Equal(rv)
			continue
		case CmpNe:
			out[i] = !lv.Equal(rv)
			continue
		}
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if lv.Kind() != rv.Kind() && !(lv.IsNumeric() && rv.IsNumeric()) {
			return fmt.Errorf("relstore: ordered comparison between %s and %s", lv.Kind(), rv.Kind())
		}
		cmp := lv.Compare(rv)
		switch op {
		case CmpLt:
			out[i] = cmp < 0
		case CmpLe:
			out[i] = cmp <= 0
		case CmpGt:
			out[i] = cmp > 0
		case CmpGe:
			out[i] = cmp >= 0
		default:
			return fmt.Errorf("relstore: unknown comparison op %d", op)
		}
	}
	return nil
}

func intCmp(op CmpOp, x, y int64) bool {
	switch op {
	case CmpEq:
		return x == y
	case CmpNe:
		return x != y
	case CmpLt:
		return x < y
	case CmpLe:
		return x <= y
	case CmpGt:
		return x > y
	default:
		return x >= y
	}
}

func floatCmp(op CmpOp, x, y float64) bool {
	switch op {
	case CmpEq:
		return x == y
	case CmpNe:
		return x != y
	case CmpLt:
		return x < y
	case CmpLe:
		return x <= y
	case CmpGt:
		return x > y
	default:
		return x >= y
	}
}

func strCmp(op CmpOp, x, y string) bool {
	switch op {
	case CmpEq:
		return x == y
	case CmpNe:
		return x != y
	case CmpLt:
		return x < y
	case CmpLe:
		return x <= y
	case CmpGt:
		return x > y
	default:
		return x >= y
	}
}

// predMask evaluates pred over all of in, chunk-parallel, returning the
// selection mask. It is the scan kernel behind Select and Table.Select.
func predMask(pred Pred, in *Rows) ([]bool, error) {
	n := len(in.Data)
	mask := make([]bool, n)
	if pred == nil {
		for i := range mask {
			mask[i] = true
		}
		return mask, nil
	}
	bounds := chunkBounds(n)
	err := runChunks(len(bounds), func(ci int) error {
		lo, hi := bounds[ci][0], bounds[ci][1]
		mBatchChunks.Inc()
		mBatchRows.Add(int64(hi - lo))
		c := newChunkCtx(in, lo, hi)
		sel := make([]bool, hi-lo)
		for i := range sel {
			sel[i] = true
		}
		return evalPredChunk(pred, c, sel, mask[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return mask, nil
}
