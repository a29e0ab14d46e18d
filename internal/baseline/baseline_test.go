package baseline

import (
	"context"
	"testing"

	"guava/internal/etl"
	"guava/internal/workload"
)

func contribs(t *testing.T) []*workload.Contributor {
	t.Helper()
	cs, err := workload.BuildAll(17, 50)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestHandETLMatchesGenerated: the expert-written physical-level extraction
// and the compiled GUAVA/MultiClass workflow produce the same study table
// (Experiment A2's correctness leg).
func TestHandETLMatchesGenerated(t *testing.T) {
	cs := contribs(t)
	spec, err := ReferenceSpec(cs)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	generated, _, err := compiled.RunResilient(context.Background(), etl.RunPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := HandETL(cs)
	if err != nil {
		t.Fatal(err)
	}
	if generated.Len() != 150 {
		t.Errorf("generated rows = %d, want 150", generated.Len())
	}
	if !generated.EqualUnordered(hand) {
		t.Fatalf("hand ETL diverges from generated workflow\ngenerated:\n%s\nhand:\n%s",
			head(generated.Format(), 12), head(hand.Format(), 12))
	}
}

func head(s string, lines int) string {
	out := ""
	for i, l := range splitLines(s) {
		if i >= lines {
			break
		}
		out += l + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func TestReferenceSpecValidation(t *testing.T) {
	cs := contribs(t)
	if _, err := ReferenceSpec(nil); err == nil {
		t.Error("empty contributor set must fail")
	}
	// Any subset of the known contributors is a valid study — partial
	// studies are how text-only or single-vendor runs work.
	if _, err := ReferenceSpec(cs[:2]); err != nil {
		t.Errorf("two-contributor subset must build: %v", err)
	}
	if _, err := ReferenceSpec([]*workload.Contributor{{Name: "Mystery"}}); err == nil {
		t.Error("unknown contributor must fail")
	}
	// HandETL rejects unknown contributors.
	bad := []*workload.Contributor{{Name: "Mystery"}}
	if _, err := HandETL(bad); err == nil {
		t.Error("unknown contributor must fail")
	}
}

// TestHypothesis2PrecisionRecall is Experiment H2: a study specified with
// classifiers over GUAVA extracts exactly the relevant records
// (precision = recall = 1.0), while the once-integrated warehouse — which
// collapsed smoking into a boolean — cannot even express the ex-smoker
// cohort and measurably over- and under-selects.
func TestHypothesis2PrecisionRecall(t *testing.T) {
	cs := contribs(t)

	// Ground truth: ex-smokers (ever quit) who had any hypoxia.
	truth := Study2Truth(cs, 0)
	if len(truth) == 0 {
		t.Fatal("empty ground-truth cohort; enlarge the workload")
	}

	// GUAVA route: per-contributor conditions select exactly ex-smokers
	// with hypoxia (vocabulary reconciled per tool).
	conds := map[string]string{
		"CORI":      "Smoking = 'Quit' AND (TransientHypoxia = TRUE OR ProlongedHypoxia = TRUE)",
		"EndoSoft":  "SmokingStatus = 'Ex-smoker' AND (O2Desat = TRUE OR O2DesatProlonged = TRUE)",
		"MedRecord": "SmokeCode = 2 AND (HypoxiaT = TRUE OR HypoxiaP = TRUE)",
	}
	spec, err := ReferenceSpec(cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec.Contributors {
		c.Condition = conds[c.Name]
	}
	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := compiled.RunResilient(context.Background(), etl.RunPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	selected := map[CohortKey]bool{}
	for _, r := range rows.Data {
		selected[CohortKey{Contributor: r[1].AsString(), Key: r[0].AsInt()}] = true
	}
	m := Score(selected, truth)
	if m.Precision() != 1 || m.Recall() != 1 {
		t.Errorf("GUAVA route: precision=%.3f recall=%.3f (TP=%d FP=%d FN=%d)",
			m.Precision(), m.Recall(), m.TruePositives, m.FalsePositives, m.FalseNegatives)
	}

	// Classical route: the integrated warehouse lost the distinction.
	integrated, err := IntegrateOnce(cs)
	if err != nil {
		t.Fatal(err)
	}
	approx := Study2FromIntegrated(integrated)
	mi := Score(approx, truth)
	if mi.Precision() >= 1 {
		t.Errorf("integrated warehouse should over-select (never-smokers with hypoxia): precision=%.3f", mi.Precision())
	}
	if mi.FalsePositives == 0 {
		t.Error("integrated warehouse must have false positives")
	}
}

func TestStudy2TruthDefinitions(t *testing.T) {
	cs := contribs(t)
	ever := Study2Truth(cs, 0)
	recent := Study2Truth(cs, 1)
	if len(recent) > len(ever) {
		t.Errorf("quit-within-1-year cohort (%d) cannot exceed ever-quit cohort (%d)", len(recent), len(ever))
	}
	for k := range recent {
		if !ever[k] {
			t.Error("recent cohort must be a subset of ever cohort")
		}
	}
}

func TestScoreMetrics(t *testing.T) {
	sel := map[CohortKey]bool{{Contributor: "a", Key: 1}: true, {Contributor: "a", Key: 2}: true}
	rel := map[CohortKey]bool{{Contributor: "a", Key: 2}: true, {Contributor: "a", Key: 3}: true}
	m := Score(sel, rel)
	if m.TruePositives != 1 || m.FalsePositives != 1 || m.FalseNegatives != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Precision() != 0.5 || m.Recall() != 0.5 {
		t.Errorf("precision=%v recall=%v", m.Precision(), m.Recall())
	}
	empty := Score(nil, nil)
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("empty cohorts score 1.0")
	}
}
