package etl

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"guava/internal/classifier"
	"guava/internal/gtree"
	"guava/internal/patterns"
	"guava/internal/relstore"
	"guava/internal/ui"
)

// propUIForm is the property tests' form definition.
func propUIForm() *ui.Form {
	return &ui.Form{
		Name: "Procedure", KeyColumn: "ProcedureID",
		Controls: []*ui.Control{
			{Name: "PacksPerDay", Kind: ui.TextBox, Question: "Packs per day", DataType: relstore.KindFloat},
			{Name: "Hypoxia", Kind: ui.CheckBox, Question: "Hypoxia?"},
			{Name: "SurgeryPerformed", Kind: ui.CheckBox, Question: "Surgery?"},
		},
	}
}

func propDerive(name string, f *ui.Form) (*gtree.Tree, error) {
	return gtree.Derive(name, 1, f)
}

// TestHypothesis3Property is the quick-check form of Hypothesis #3: for
// random threshold classifiers, random entity filters, and random data, the
// compiled three-stage ETL workflow and direct rule evaluation agree —
// across two different physical pattern stacks.
func TestHypothesis3Property(t *testing.T) {
	stacks := []*patterns.Stack{
		patterns.NewStack(patterns.Naive{}, &patterns.Audit{}),
		patterns.NewStack(patterns.Generic{}, &patterns.Encode{}),
	}
	f := func(records []uint8, packs []int8, t1, t2 int8, surgeryOnly bool, pickStack uint8) bool {
		spec := propStudySpec(records, packs, t1, t2, surgeryOnly, stacks[int(pickStack)%len(stacks)])
		if spec == nil {
			return false
		}
		compiled, err := Compile(spec)
		if err != nil {
			return false
		}
		viaETL, _, err := compiled.RunResilient(context.Background(), RunPolicy{}, 1)
		if err != nil {
			return false
		}
		direct, err := DirectEval(spec)
		if err != nil {
			return false
		}
		return viaETL.EqualUnordered(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// propStudySpec builds a single-contributor study over random data with a
// random threshold classifier and a random entity filter — the generator
// shared by the Hypothesis #3 property and the fault-injection properties.
func propStudySpec(records []uint8, packs []int8, t1, t2 int8, surgeryOnly bool, stack *patterns.Stack) *StudySpec {
	// Normalize thresholds to an increasing pair.
	lo, hi := int64(t1), int64(t2)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == hi {
		hi++
	}
	contrib := contribPropFixture(records, packs, stack)
	if contrib == nil {
		return nil
	}
	entitySrc := "Procedure <- Procedure"
	if surgeryOnly {
		entitySrc = "Procedure <- Procedure AND SurgeryPerformed = TRUE"
	}
	entity, err := classifier.ParseEntity("e", "", "Procedure", entitySrc)
	if err != nil {
		return nil
	}
	habits, err := classifier.Parse("h", "", classifier.Target{
		Entity: "Procedure", Attribute: "Smoking", Domain: "D",
		Kind: relstore.KindString, Elements: []string{"Low", "Mid", "High"},
	}, fmt.Sprintf("Low <- PacksPerDay < %d\nMid <- %d <= PacksPerDay < %d\nHigh <- PacksPerDay >= %d", lo, lo, hi, hi))
	if err != nil {
		return nil
	}
	contrib.Entity = entity
	contrib.Classifiers = map[string]*classifier.Classifier{"Smoking_D": habits}
	return &StudySpec{
		Name:         "prop",
		Columns:      []ColumnSpec{{As: "Smoking_D", Attribute: "Smoking", Domain: "D", Kind: relstore.KindString}},
		Contributors: []*ContributorPlan{contrib},
	}
}

// contribPropFixture builds a contributor with the given random data.
func contribPropFixture(records []uint8, packs []int8, stack *patterns.Stack) *ContributorPlan {
	c := contribFixtureRaw("prop", stack)
	if c == nil {
		return nil
	}
	seen := map[uint8]bool{}
	for i, k := range records {
		if seen[k] {
			continue
		}
		seen[k] = true
		var p relstore.Value
		if i < len(packs) && packs[i] >= 0 {
			p = relstore.Float(float64(packs[i]))
		} else {
			p = relstore.Null()
		}
		row := map[string]relstore.Value{
			"ProcedureID":      relstore.Int(int64(k)),
			"PacksPerDay":      p,
			"Hypoxia":          relstore.Bool(i%2 == 0),
			"SurgeryPerformed": relstore.Bool(i%3 == 0),
		}
		if err := stack.WriteValues(c.DB, c.Form, row); err != nil {
			return nil
		}
	}
	return c
}

// contribFixtureRaw builds the form/tree/db scaffolding without data; it is
// the non-testing.T variant of contribFixture for property tests.
func contribFixtureRaw(name string, stack *patterns.Stack) *ContributorPlan {
	f := propUIForm()
	if err := f.Validate(); err != nil {
		return nil
	}
	tree, err := propDerive(name, f)
	if err != nil {
		return nil
	}
	info, err := patterns.FromUIForm(f)
	if err != nil {
		return nil
	}
	db := relstore.NewDB(name)
	if err := stack.Install(db, info); err != nil {
		return nil
	}
	return &ContributorPlan{Name: name, DB: db, Tree: tree, Stack: stack, Form: info}
}
