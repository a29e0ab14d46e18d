package etl

import (
	"testing"

	"guava/internal/patterns"
	"guava/internal/relstore"
)

// Hooks for the external etl_test package: the fault-injection and
// cancellation suites live outside the package so they can import
// guava/internal/etl/faulty (which imports etl) without an import cycle,
// and reuse the in-package fixtures through these exports.

// StudyFixtureForTest exposes the two-contributor study fixture.
func StudyFixtureForTest(t *testing.T) *StudySpec { return studyFixture(t) }

// PropStudySpecForTest exposes the randomized single-contributor study
// generator used by the property tests.
func PropStudySpecForTest(records []uint8, packs []int8, t1, t2 int8, surgeryOnly bool, stack *patterns.Stack) *StudySpec {
	return propStudySpec(records, packs, t1, t2, surgeryOnly, stack)
}

// MergeForTest exposes the full-scope warehouse patch of RefreshContext.
func MergeForTest(table *relstore.Table, fresh *relstore.Rows, keepContributors ...string) (RefreshStats, error) {
	return merge(table, fresh, keepContributors...)
}
