package etl_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"guava/internal/etl"
	"guava/internal/etl/faulty"
	"guava/internal/patterns"
)

// TestStudyDegradesGracefully is the acceptance scenario: a compiled
// multi-contributor study with one contributor forced to fail completes in
// ContinueOnError mode, unions the surviving contributors, and its
// RunReport names the failed step, its attempt count, the skipped
// dependents, and the degraded contributor.
func TestStudyDegradesGracefully(t *testing.T) {
	spec := etl.StudyFixtureForTest(t) // contributors clinicA, clinicB
	clean, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := clean.RunResilient(context.Background(), etl.RunPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}

	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch := faulty.Wrap(compiled.Workflow, "extract/clinicB", func(wrapped etl.Component) *faulty.Chaos {
		return &faulty.Chaos{Wrapped: wrapped, FailForever: true}
	})
	if ch == nil {
		t.Fatal("extract/clinicB not found")
	}

	policy := etl.RunPolicy{MaxAttempts: 3, ContinueOnError: true}
	rows, rep, err := compiled.RunResilient(context.Background(), policy, 4)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}

	// The surviving contributor's rows are all present, and only those.
	for _, r := range rows.Data {
		if got := r[1].AsString(); got != "clinicA" {
			t.Fatalf("degraded output contains contributor %q", got)
		}
	}
	wantA := 0
	for _, r := range want.Data {
		if r[1].AsString() == "clinicA" {
			wantA++
		}
	}
	if rows.Len() != wantA {
		t.Fatalf("degraded output = %d rows, want clinicA's %d\n%s", rows.Len(), wantA, rows.Format())
	}

	// The report names the failure, its attempts, and the fallout.
	res := rep.Step("extract/clinicB")
	if res.Status != etl.StepFailed || res.Attempts != 3 {
		t.Fatalf("extract/clinicB = %v attempts=%d, want failed after 3", res.Status, res.Attempts)
	}
	if !errors.Is(res.Err, faulty.ErrInjected) {
		t.Fatalf("step error = %v", res.Err)
	}
	if got := rep.Failed(); !reflect.DeepEqual(got, []string{"extract/clinicB"}) {
		t.Fatalf("failed = %v", got)
	}
	if got := rep.Skipped(); !reflect.DeepEqual(got, []string{"classify/clinicB", "select/clinicB"}) {
		t.Fatalf("skipped = %v", got)
	}
	if got := rep.Step("select/clinicB").SkippedBecause; !reflect.DeepEqual(got, []string{"extract/clinicB"}) {
		t.Fatalf("select/clinicB skip cause = %v", got)
	}

	// The final load degraded: it dropped clinicB's classified table.
	union := rep.Step("load/union")
	if union.Status != etl.StepDegraded {
		t.Fatalf("load/union = %v, want degraded", union.Status)
	}
	if len(union.DroppedInputs) != 1 || !strings.Contains(union.DroppedInputs[0].String(), "clinicB") {
		t.Fatalf("dropped inputs = %v", union.DroppedInputs)
	}
	if !reflect.DeepEqual(rep.DegradedContributors, []string{"clinicB"}) {
		t.Fatalf("degraded contributors = %v", rep.DegradedContributors)
	}
	if rep.Err == nil || rep.OK() {
		t.Fatal("report must record the failure")
	}
	if !strings.Contains(rep.Render(), "degraded contributors: clinicB") {
		t.Fatalf("render:\n%s", rep.Render())
	}
}

// TestStudyAllContributorsFail: with every chain dead the union has nothing
// to load, and RunResilient reports the failure instead of fabricating an
// empty study.
func TestStudyAllContributorsFail(t *testing.T) {
	spec := etl.StudyFixtureForTest(t)
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"extract/clinicA", "extract/clinicB"} {
		if faulty.Wrap(compiled.Workflow, id, func(wrapped etl.Component) *faulty.Chaos {
			return &faulty.Chaos{Wrapped: wrapped, FailForever: true}
		}) == nil {
			t.Fatalf("%s not found", id)
		}
	}
	rows, rep, err := compiled.RunResilient(context.Background(), etl.RunPolicy{ContinueOnError: true}, 4)
	if err == nil || rows != nil {
		t.Fatalf("rows=%v err=%v, want no-output error", rows, err)
	}
	if rep == nil || len(rep.DegradedContributors) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestStudyTransientFaultRetries: a contributor whose extract fails once
// recovers under MaxAttempts=2 and the study output is byte-identical to
// the clean run.
func TestStudyTransientFaultRetries(t *testing.T) {
	spec := etl.StudyFixtureForTest(t)
	clean, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := clean.RunResilient(context.Background(), etl.RunPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch := faulty.Wrap(compiled.Workflow, "extract/clinicA", func(wrapped etl.Component) *faulty.Chaos {
		return &faulty.Chaos{Wrapped: wrapped, FailFirst: 1}
	})
	rows, rep, err := compiled.RunResilient(context.Background(), etl.RunPolicy{MaxAttempts: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.EqualUnordered(want) {
		t.Fatal("retried run differs from clean run")
	}
	if res := rep.Step("extract/clinicA"); res.Status != etl.StepOK || res.Attempts != 2 {
		t.Fatalf("extract/clinicA = %v attempts=%d", res.Status, res.Attempts)
	}
	if ch.Attempts() != 2 {
		t.Fatalf("chaos attempts = %d", ch.Attempts())
	}
	if len(rep.DegradedContributors) != 0 || !rep.OK() {
		t.Fatalf("recovered run must not be degraded: %+v", rep)
	}
}

// TestSerialParallelEquivalenceUnderFaults is the property: for random
// acyclic compiled workflows (the shared property generator), serial
// execution, parallel execution, and both again under injected retryable
// faults that succeed on attempt 2 all produce the identical final table
// state.
func TestSerialParallelEquivalenceUnderFaults(t *testing.T) {
	stacks := []*patterns.Stack{
		patterns.NewStack(patterns.Naive{}, &patterns.Audit{}),
		patterns.NewStack(patterns.Generic{}, &patterns.Encode{}),
	}
	f := func(records []uint8, packs []int8, t1, t2 int8, surgeryOnly bool, pickStack uint8) bool {
		spec := etl.PropStudySpecForTest(records, packs, t1, t2, surgeryOnly, stacks[int(pickStack)%len(stacks)])
		if spec == nil {
			return false
		}
		clean, err := etl.Compile(spec)
		if err != nil {
			return false
		}
		want, _, err := clean.RunResilient(context.Background(), etl.RunPolicy{}, 1)
		if err != nil {
			return false
		}
		policy := etl.RunPolicy{MaxAttempts: 2}
		for _, workers := range []int{1, 4} {
			compiled, err := etl.Compile(spec)
			if err != nil {
				return false
			}
			// Every extract fails its first attempt, succeeds on retry.
			for _, s := range compiled.Workflow.Steps {
				if strings.HasPrefix(s.ID, "extract/") {
					faulty.Wrap(compiled.Workflow, s.ID, func(wrapped etl.Component) *faulty.Chaos {
						return &faulty.Chaos{Wrapped: wrapped, FailFirst: 1}
					})
				}
			}
			rows, rep, err := compiled.RunResilient(context.Background(), policy, workers)
			if err != nil || !rep.OK() {
				return false
			}
			if !rows.EqualUnordered(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
