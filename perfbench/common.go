package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"guava/internal/baseline"
	"guava/internal/etl"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// buildMixed builds the mixed reference study the way `runstudy -with-text`
// does: CORI, EndoSoft and MedRecord plus the free-text Notes contributor,
// n records each, all from one seed.
func buildMixed(seed int64, n int) ([]*workload.Contributor, *etl.StudySpec, error) {
	contribs, err := workload.BuildAll(seed, n)
	if err != nil {
		return nil, nil, err
	}
	notes, err := workload.BuildNotes(seed+3, n)
	if err != nil {
		return nil, nil, err
	}
	contribs = append(contribs, notes)
	spec, err := baseline.ReferenceSpec(contribs)
	if err != nil {
		return nil, nil, err
	}
	return contribs, spec, nil
}

// digest hashes rows in their given order.
func digest(rows *relstore.Rows) ([32]byte, error) {
	h := sha256.New()
	if err := relstore.WriteTyped(h, rows); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// canonicalDigest hashes rows sorted on every column, so physical row order
// cannot mask or fake a difference.
func canonicalDigest(rows *relstore.Rows) ([32]byte, error) {
	sorted, err := relstore.SortBy(rows, rows.Schema.Names()...)
	if err != nil {
		return [32]byte{}, err
	}
	return digest(sorted)
}

// byName indexes the contributors by name for applying mutations.
func byName(contribs []*workload.Contributor) map[string]*workload.Contributor {
	m := make(map[string]*workload.Contributor, len(contribs))
	for _, c := range contribs {
		m[c.Name] = c
	}
	return m
}

// writeSpan names the layer one mutation exercises: UI entry for inserts,
// the pattern stack for table updates and deprecations, and textsrc's
// re-dictation for updates to the Notes reports.
func writeSpan(m workload.Mutation) string {
	switch {
	case m.Kind == workload.MutInsert:
		return "ui.insert"
	case m.Contributor == "Notes":
		return "textsrc.update"
	case m.Kind == workload.MutDelete:
		return "patterns.deprecate"
	}
	return "patterns.update"
}

// applyOne applies one mutation through the contributor's public write path,
// exactly as workload.Apply does for a whole batch, and returns how long the
// write call took. The traced run gets a span around that call.
func applyOne(tr *tracer, op, parent int64, contribs map[string]*workload.Contributor, m workload.Mutation) (time.Duration, error) {
	c, ok := contribs[m.Contributor]
	if !ok {
		return 0, fmt.Errorf("mutation targets unknown contributor %q", m.Contributor)
	}
	var truth workload.Truth
	if m.Kind == workload.MutInsert {
		truth = workload.Generate(m.Seed, 1)[0]
		truth.ID = m.Key
		truth.Findings = nil
	}
	var err error
	id := tr.begin(op, parent, writeSpan(m))
	t0 := time.Now()
	switch m.Kind {
	case workload.MutInsert:
		err = c.InsertTruth(truth)
	case workload.MutUpdate:
		_, err = c.SetField(relstore.Int(m.Key), m.Col, m.Val)
	case workload.MutDelete:
		_, err = c.DeprecateRecord(relstore.Int(m.Key))
	default:
		err = fmt.Errorf("unknown mutation kind %v", m.Kind)
	}
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return d, fmt.Errorf("apply %s: %w", m, err)
	}
	return d, nil
}

// writeLayers reports the median time of each write kind applyOne traced.
func writeLayers(tr *tracer) []metric {
	var out []metric
	for _, layer := range []string{"ui.insert", "patterns.update", "patterns.deprecate", "textsrc.update"} {
		out = append(out, pct(layer+"_us", "us", tr.each(benchSpan(layer)), 0.5, 1000))
	}
	return out
}
