package etl

import (
	"context"
	"strings"
	"testing"

	"guava/internal/classifier"
	"guava/internal/relstore"
)

// TestCleaningClassifiers: DISCARD rules drop records before classification
// (Section 6 extension), identically under compiled-ETL and direct
// evaluation.
func TestCleaningClassifiers(t *testing.T) {
	spec := studyFixture(t)
	cleaner, err := classifier.ParseCleaner("Implausible packs",
		"data-entry errors: nobody smokes 6+ packs a day", "DISCARD <- PacksPerDay >= 6")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec.Contributors {
		c.Cleaners = []*classifier.Classifier{cleaner}
	}
	compiled, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := compiled.RunResilient(context.Background(), RunPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture has clinicA record 3 with 7 packs/day — but it fails the
	// surgery filter anyway; add a cleaner that bites: discard packs >= 3.
	baseLen := rows.Len()

	spec2 := studyFixture(t)
	biting, err := classifier.ParseCleaner("Strict", "discard 3+ packs", "DISCARD <- PacksPerDay >= 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec2.Contributors {
		c.Cleaners = []*classifier.Classifier{biting}
	}
	compiled2, err := Compile(spec2)
	if err != nil {
		t.Fatal(err)
	}
	rows2, _, err := compiled2.RunResilient(context.Background(), RunPolicy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows2.Len() != baseLen-1 {
		t.Fatalf("cleaner dropped %d rows, want 1 (got %d vs %d)", baseLen-rows2.Len(), rows2.Len(), baseLen)
	}
	for _, r := range rows2.Data {
		if r[1].Equal(strVal("clinicA")) && r[0].Equal(intVal(2)) {
			t.Error("clinicA record 2 (3 packs) should have been discarded")
		}
	}
	// Direct evaluation agrees.
	direct, err := DirectEval(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.EqualUnordered(direct) {
		t.Error("cleaning: ETL and direct evaluation differ")
	}
}

func TestCleaningValidation(t *testing.T) {
	// Non-DISCARD values rejected at parse time.
	if _, err := classifier.ParseCleaner("bad", "", "KEEP <- PacksPerDay > 0"); err == nil {
		t.Error("non-DISCARD value must fail")
	}
	// A domain classifier cannot pose as a cleaner.
	spec := studyFixture(t)
	spec.Contributors[0].Cleaners = []*classifier.Classifier{
		spec.Contributors[0].Classifiers["Smoking_D3"],
	}
	if _, err := Compile(spec); err == nil {
		t.Error("domain classifier as cleaner must fail")
	}
	// A cleaner cannot fill a column.
	spec2 := studyFixture(t)
	cleaner, err := classifier.ParseCleaner("c", "", "DISCARD <- PacksPerDay > 0")
	if err != nil {
		t.Fatal(err)
	}
	spec2.Contributors[0].Classifiers["Smoking_D3"] = cleaner
	if _, err := Compile(spec2); err == nil {
		t.Error("cleaner as domain classifier must fail")
	}
	// A cleaner referencing unknown nodes fails at bind.
	spec3 := studyFixture(t)
	ghost, err := classifier.ParseCleaner("g", "", "DISCARD <- Ghost = 1")
	if err != nil {
		t.Fatal(err)
	}
	spec3.Contributors[0].Cleaners = []*classifier.Classifier{ghost}
	if _, err := Compile(spec3); err == nil {
		t.Error("unbindable cleaner must fail")
	}
	// Cleaner renders with its own header.
	if !strings.Contains(cleaner.String(), "Cleaning Classifier c") {
		t.Errorf("String = %q", cleaner.String())
	}
}

// small literal helpers for readability in this file.
func strVal(s string) relstore.Value { return relstore.Str(s) }
func intVal(i int64) relstore.Value  { return relstore.Int(i) }
