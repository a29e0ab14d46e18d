package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"guava/internal/etl"
	"guava/internal/relstore"
)

// studyRun is the analyst's path: compile the reference study and run its
// generated Figure-6 workflow with runstudy's default of one worker. The
// read path does nearly all the work (pattern-stack reads, relstore copies,
// classify, union); serve and the write path are never touched.
type studyRun struct {
	spec *etl.StudySpec
	want [32]byte // DirectEval's output, in the order RunResilient returns

	compile, run dist
	busy         float64
}

const studyRunRecords = 1000

func newStudyRun(string) bench { return &studyRun{} }

func (b *studyRun) setup(seed int64) error {
	_, spec, err := buildMixed(seed, studyRunRecords)
	if err != nil {
		return err
	}
	b.spec, b.want = spec, [32]byte{}
	return nil
}

func (b *studyRun) warmOps() int { return 3 }

// expected computes the reference output once: DirectEval walks the
// classifier rules straight over each contributor's naive relation.
func (b *studyRun) expected() error {
	if b.want != ([32]byte{}) {
		return nil
	}
	rows, err := etl.DirectEval(b.spec)
	if err != nil {
		return fmt.Errorf("DirectEval: %w", err)
	}
	cols := []string{etl.ContributorColumn, etl.EntityKeyColumn}
	for _, n := range rows.Schema.Names() {
		if n != etl.ContributorColumn && n != etl.EntityKeyColumn {
			cols = append(cols, n)
		}
	}
	// RunResilient returns its output sorted by contributor, entity key and
	// then the study columns; compare in that order.
	sorted, err := relstore.SortBy(rows, cols...)
	if err != nil {
		return err
	}
	b.want, err = digest(sorted)
	return err
}

func (b *studyRun) step(ctx context.Context, tr *tracer, op int64) error {
	if err := b.expected(); err != nil {
		return err
	}
	root := tr.begin(op, 0, "op")
	t0 := time.Now()
	cid := tr.begin(op, root, "etl.Compile")
	compiled, err := etl.Compile(b.spec)
	tr.end(cid)
	if err != nil {
		tr.end(root)
		return err
	}
	t1 := time.Now()
	octx, o := tr.opContext(ctx)
	rid := tr.begin(op, root, "Compiled.RunResilient")
	rows, _, err := compiled.RunResilient(octx, etl.RunPolicy{}, 1)
	tr.end(rid)
	t2 := time.Now()
	tr.end(root)
	tr.adopt(op, rid, o)
	if err != nil {
		return err
	}
	b.compile.add(t1.Sub(t0))
	b.run.add(t2.Sub(t0))
	b.busy += float64(t2.Sub(t0)) / float64(time.Millisecond)

	got, err := digest(rows)
	if err != nil {
		return err
	}
	if got != b.want {
		return fmt.Errorf("study output (%d rows) differs from DirectEval", rows.Len())
	}
	return nil
}

func (b *studyRun) reset() {
	b.compile, b.run, b.busy = dist{}, dist{}, 0
}

func (b *studyRun) units() int      { return b.run.n() }
func (b *studyRun) busyMs() float64 { return b.busy }

func (b *studyRun) endToEnd(rates *dist) []e2e {
	return []e2e{
		{pct("run_p50_ms", "ms", &b.run, 0.5, 1), "main_p50_ms"},
		{pct("run_p90_ms", "ms", &b.run, 0.9, 1), "main_p90_ms"},
		{pct("runs_per_s", "1/s", rates, 0.5, 1), "ops_per_s"},
		{pct("compile_p50_us", "us", &b.compile, 0.5, 1000), "fast_p50_us"},
	}
}

// stepOf matches the program's workflow step spans of one stage, e.g.
// "extract/" for every contributor's extract step.
func stepOf(stage string, contributors ...string) func(*span) bool {
	return func(s *span) bool {
		id, ok := strings.CutPrefix(s.Name, "step "+stage)
		if s.Src != "program" || !ok {
			return false
		}
		if len(contributors) == 0 {
			return true
		}
		for _, c := range contributors {
			if id == c {
				return true
			}
		}
		return false
	}
}

func (b *studyRun) layers(tr *tracer, delta map[string]int64, runs int64) []metric {
	kids := tr.children()
	dur := func(s *span) float64 { return s.dur() }
	self := func(s *span) float64 { return tr.selfMs(s.ID, kids) }
	return []metric{
		pct("patterns.read_ms", "ms", tr.perOp(stepOf("extract/", "CORI", "EndoSoft", "MedRecord"), dur), 0.5, 1),
		pct("textsrc.extract_ms", "ms", tr.perOp(stepOf("extract/", "Notes"), dur), 0.5, 1),
		pct("etl.select_ms", "ms", tr.perOp(stepOf("select/"), dur), 0.5, 1),
		pct("classifier.classify_ms", "ms", tr.perOp(stepOf("classify/"), dur), 0.5, 1),
		pct("etl.union_ms", "ms", tr.perOp(stepOf("load/"), dur), 0.5, 1),
		pct("etl.executor_self_ms", "ms", tr.perOp(named("workflow "), self), 0.5, 1),
		pct("etl.compile_ms", "ms", tr.each(benchSpan("etl.Compile")), 0.5, 1),
		scalar("etl.rows_in_per_run", "count", ratio(delta["etl.rows.in"], runs)),
		scalar("relstore.ops_per_run", "count", ratio(sumPrefix(delta, "relstore.ops."), runs)),
		scalar("relstore.batch_rows_per_run", "count", ratio(delta["relstore.batch.rows"], runs)),
	}
}

func (b *studyRun) counts(delta map[string]int64) []string {
	return []string{
		fmt.Sprintf("runs=%d etl.rows.in=%d relstore.batch.rows=%d", b.units(), delta["etl.rows.in"], delta["relstore.batch.rows"]),
		"relstore.ops: " + listPrefix(delta, "relstore.ops."),
	}
}

// finish has nothing left to check: every op's output was compared with
// DirectEval as it completed.
func (b *studyRun) finish(context.Context, *tracer) []string { return nil }

func (b *studyRun) close() {}
