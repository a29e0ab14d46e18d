package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"guava/internal/obs"
	"guava/internal/relstore"
)

// expR7: columnar execution and segment-backed storage. Two sections over
// one synthetic entity relation sized well past a chunk width:
//
//  1. Chunked operator parallelism — the same Select and Join run with the
//     worker pool pinned to 1 and then to `workers`, verifying the outputs
//     are byte-identical (chunk-order assembly) and reporting the speedup.
//     -min-par-speedup turns a too-small scan/join speedup into an error —
//     the CI regression gate. It defaults to 0 (report only) because the
//     speedup is meaningless on a single-core box: the pool still fans out,
//     but there is nothing to run the chunks on.
//  2. Segment-backed scans — the relation written in the v2 segment layout,
//     reopened under a byte budget an order of magnitude below the file
//     size, and scanned; correctness against the in-memory Select plus the
//     relstore.segment.* counters show the warehouse exceeding RAM while
//     staying resident-bounded.
func expR7(seed int64, n int, minParSpeedup float64) {
	rows := n * 400
	const workers = 4
	fmt.Printf("== R7: columnar scans, segment-backed storage (%d rows, %d workers) ==\n", rows, workers)

	schema := relstore.MustSchema(
		relstore.Column{Name: "EntityKey", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Contributor", Type: relstore.KindString},
		relstore.Column{Name: "Smoking", Type: relstore.KindString},
		relstore.Column{Name: "Packs", Type: relstore.KindFloat},
		relstore.Column{Name: "Hypoxia", Type: relstore.KindBool},
	)
	rng := rand.New(rand.NewSource(seed))
	smoking := []string{"None", "Light", "Heavy", "Quit"}
	contribs := []string{"CORI", "EndoSoft", "MedRecord"}
	rel := &relstore.Rows{Schema: schema, Data: make([]relstore.Row, rows)}
	for i := range rel.Data {
		r := relstore.Row{
			relstore.Int(int64(i + 1)),
			relstore.Str(contribs[rng.Intn(len(contribs))]),
			relstore.Str(smoking[rng.Intn(len(smoking))]),
			relstore.Float(float64(rng.Intn(60)) / 10),
			relstore.Bool(rng.Intn(5) == 0),
		}
		if rng.Intn(10) == 0 {
			r[3] = relstore.Null()
		}
		rel.Data[i] = r
	}
	// A classifier-shaped cohort predicate: string equality plus an ordered
	// float comparison — both hit the typed columnar kernels.
	pred := relstore.And(
		relstore.Cmp(relstore.CmpNe, relstore.Col("Smoking"), relstore.Lit(relstore.Str("None"))),
		relstore.Cmp(relstore.CmpGt, relstore.Col("Packs"), relstore.Lit(relstore.Float(2.5))),
	)
	// The join's right side: a cohort covering a quarter of the entity keys,
	// the shape of a study-extract-to-warehouse patch. Keeping it small keeps
	// the join dominated by the chunk-parallel probe, not the sequential
	// build of the right-side hash.
	dim := &relstore.Rows{Schema: relstore.MustSchema(
		relstore.Column{Name: "EntityKey", Type: relstore.KindInt, NotNull: true},
		relstore.Column{Name: "Site", Type: relstore.KindString},
	)}
	for i := 0; i < rows; i += 4 {
		dim.Data = append(dim.Data, relstore.Row{
			relstore.Int(int64(i + 1)), relstore.Str(fmt.Sprintf("site%d", i%7)),
		})
	}

	const reps = 5
	prevPar := relstore.Parallelism()
	defer relstore.SetParallelism(prevPar)

	bench := func(par int, fn func() (*relstore.Rows, error)) (time.Duration, *relstore.Rows) {
		relstore.SetParallelism(par)
		var out *relstore.Rows
		dur, err := timeIt(reps, func() error {
			var err error
			out, err = fn()
			return err
		})
		if err != nil {
			fail(err)
		}
		return dur, out
	}

	// 1. Chunked operator parallelism.
	scanSeq, scanSeqRows := bench(1, func() (*relstore.Rows, error) { return relstore.Select(rel, pred) })
	scanPar, scanParRows := bench(workers, func() (*relstore.Rows, error) { return relstore.Select(rel, pred) })
	if !sameOrderedRows(scanSeqRows, scanParRows) {
		fail(fmt.Errorf("R7: parallel scan output differs from sequential"))
	}
	joinSeq, joinSeqRows := bench(1, func() (*relstore.Rows, error) {
		return relstore.Join(rel, dim, "EntityKey", "EntityKey", "d_")
	})
	joinPar, joinParRows := bench(workers, func() (*relstore.Rows, error) {
		return relstore.Join(rel, dim, "EntityKey", "EntityKey", "d_")
	})
	if !sameOrderedRows(joinSeqRows, joinParRows) {
		fail(fmt.Errorf("R7: parallel join output differs from sequential"))
	}
	scanSpeedup := float64(scanSeq) / float64(scanPar)
	joinSpeedup := float64(joinSeq) / float64(joinPar)
	fmt.Printf("%-34s %14s %14s %10s %8s\n", "operator", "1 worker", fmt.Sprintf("%d workers", workers), "speedup", "rows")
	fmt.Printf("%-34s %14s %14s %9.2fx %8d\n", "chunked select (cohort pred)", scanSeq, scanPar, scanSpeedup, scanSeqRows.Len())
	fmt.Printf("%-34s %14s %14s %9.2fx %8d\n", "chunked hash join (entity key)", joinSeq, joinPar, joinSpeedup, joinSeqRows.Len())

	// 2. Segment-backed scans under a byte budget.
	dir, err := os.MkdirTemp("", "coribench-r7-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "r7.rel")
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := relstore.WriteTypedSegmented(f, rel, relstore.DefaultSegmentRows); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		fail(err)
	}
	budget := fi.Size() / 10
	set, err := relstore.OpenSegments(path, budget)
	if err != nil {
		fail(err)
	}
	defer set.Close()

	loads := obs.Default.Counter("relstore.segment.loads")
	evicts := obs.Default.Counter("relstore.segment.evictions")
	loads0, evicts0 := loads.Value(), evicts.Value()
	var segRows *relstore.Rows
	segDur, err := timeIt(reps, func() error {
		var err error
		segRows, err = set.Select(pred)
		return err
	})
	if err != nil {
		fail(err)
	}
	if !sameOrderedRows(segRows, scanSeqRows) {
		fail(fmt.Errorf("R7: segment-backed select output differs from in-memory"))
	}
	resSegs, resBytes := set.Resident()
	if resBytes > budget {
		fail(fmt.Errorf("R7: resident bytes %d exceed budget %d", resBytes, budget))
	}
	fmt.Printf("%-34s %14s %10s\n", "segment-backed path", "select", "rows")
	fmt.Printf("%-34s %14s %10d\n",
		fmt.Sprintf("lazy scan (%d segments)", set.NumSegments()), segDur, segRows.Len())
	fmt.Printf("file %d bytes, budget %d: %d/%d segments resident (%d bytes), %d loads, %d evictions\n",
		fi.Size(), budget, resSegs, set.NumSegments(), resBytes,
		loads.Value()-loads0, evicts.Value()-evicts0)

	if minParSpeedup > 0 {
		fmt.Printf("parallel speedup gate: %.2fx (scan %.2fx, join %.2fx)\n", minParSpeedup, scanSpeedup, joinSpeedup)
		if scanSpeedup < minParSpeedup {
			fail(fmt.Errorf("R7: scan speedup %.2fx below the %.2fx gate", scanSpeedup, minParSpeedup))
		}
		if joinSpeedup < minParSpeedup {
			fail(fmt.Errorf("R7: join speedup %.2fx below the %.2fx gate", joinSpeedup, minParSpeedup))
		}
	}
	fmt.Println()
}

// sameOrderedRows reports whether two results hold identical rows in
// identical order — the determinism invariant for chunk-parallel operators,
// stricter than EqualUnordered.
func sameOrderedRows(a, b *relstore.Rows) bool {
	if !a.Schema.Equal(b.Schema) || a.Len() != b.Len() {
		return false
	}
	ka := relstore.ParallelRowKeys(a.Data, relstore.Row.Key)
	kb := relstore.ParallelRowKeys(b.Data, relstore.Row.Key)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
