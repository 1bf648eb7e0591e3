package compliance

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/procedural"
	"repro/internal/storage"
)

// buildComposition assembles a composition from catalog service IDs, wiring
// each step to depend on the previous one.
func buildComposition(t *testing.T, ids ...string) *procedural.Composition {
	t.Helper()
	reg := catalog.DefaultRegistry()
	c := &procedural.Composition{Campaign: "test"}
	prev := ""
	for i, id := range ids {
		d, err := reg.Get(id)
		if err != nil {
			t.Fatalf("catalog service %q: %v", id, err)
		}
		step := procedural.Step{ID: d.ID, Service: d}
		if prev != "" {
			step.DependsOn = []string{prev}
		}
		c.Steps = append(c.Steps, step)
		prev = d.ID
		_ = i
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("composition invalid: %v", err)
	}
	return c
}

func campaign(regime model.PrivacyRegime, personal bool) *model.Campaign {
	return &model.Campaign{
		Name:     "churn",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClassification,
			TargetTable:    "telco_customers",
			LabelColumn:    "churned",
			FeatureColumns: []string{"tenure_months"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: personal, Region: "eu"}},
		Regime:  regime,
	}
}

func pipelineWithAnonymization(t *testing.T) *procedural.Composition {
	return buildComposition(t, "ingest-batch", "pseudonymize-pii", "classify-logreg", "process-batch", "display-dashboard")
}

func pipelineWithoutAnonymization(t *testing.T) *procedural.Composition {
	return buildComposition(t, "ingest-batch", "clean-missing", "classify-logreg", "process-batch", "display-dashboard")
}

func TestEvaluateRequiresInputs(t *testing.T) {
	e := NewEngine()
	if _, err := e.Evaluate(Input{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want ErrBadInput", err)
	}
}

func TestCompliantWithoutPersonalData(t *testing.T) {
	e := NewEngine()
	rep, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeStrict, false),
		Composition:     pipelineWithoutAnonymization(t),
		DataSensitivity: storage.Internal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant() {
		t.Errorf("non-personal data must always be compliant: %+v", rep.Violations)
	}
	if rep.PrivacyScore != 1.0 {
		t.Errorf("privacy score = %v, want 1.0", rep.PrivacyScore)
	}
	if len(rep.Obligations) != 0 {
		t.Errorf("no obligations expected, got %v", rep.Obligations)
	}
}

func TestR1RequiresAnonymization(t *testing.T) {
	e := NewEngine()
	rep, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimePseudonymize, true),
		Composition:     pipelineWithoutAnonymization(t),
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant() {
		t.Fatal("missing anonymisation under pseudonymize regime must be non-compliant")
	}
	foundR1 := false
	for _, v := range rep.Violations {
		if v.Rule == "R1-anonymize-before-analytics" && v.Severity == Blocking {
			foundR1 = true
		}
	}
	if !foundR1 {
		t.Errorf("R1 violation missing: %+v", rep.Violations)
	}

	// Adding the pseudonymizer fixes it.
	rep2, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimePseudonymize, true),
		Composition:     pipelineWithAnonymization(t),
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Compliant() {
		t.Errorf("pseudonymized pipeline must be compliant: %+v", rep2.Violations)
	}
	if rep2.PrivacyScore != 0.8 {
		t.Errorf("pseudonymized privacy score = %v, want 0.8", rep2.PrivacyScore)
	}
	if len(rep2.Obligations) == 0 {
		t.Error("obligations must accompany personal-data processing")
	}
}

func TestR2StrictRequiresFullAnonymization(t *testing.T) {
	e := NewEngine()
	// Pseudonymization is not enough under strict.
	rep, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeStrict, true),
		Composition:     pipelineWithAnonymization(t),
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant() {
		t.Fatal("pseudonymization under strict regime must be non-compliant")
	}
	// Strict masking satisfies both R1 and R2.
	strict := buildComposition(t, "ingest-batch", "mask-strict", "classify-logreg", "process-batch", "display-dashboard")
	rep2, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeStrict, true),
		Composition:     strict,
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Compliant() {
		t.Errorf("strict anonymisation must be compliant: %+v", rep2.Violations)
	}
	if rep2.PrivacyScore != 1.0 {
		t.Errorf("strict anonymisation privacy score = %v, want 1.0", rep2.PrivacyScore)
	}
}

func TestR3AggregateDisplayUnderStrict(t *testing.T) {
	e := NewEngine()
	// Record-level export under strict regime, even after strict
	// anonymisation, violates the aggregate-display rule.
	exporting := buildComposition(t, "ingest-batch", "mask-strict", "classify-logreg", "process-batch", "display-export")
	rep, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeStrict, true),
		Composition:     exporting,
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "R3-aggregate-display" {
			found = true
		}
	}
	if !found {
		t.Errorf("R3 must fire for record-level display under strict: %+v", rep.Violations)
	}
	// An aggregating analytics step (reporting) makes record-level display acceptable.
	reporting := buildComposition(t, "ingest-batch", "mask-strict", "report-aggregate", "process-batch", "display-export")
	rep2, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeStrict, true),
		Composition:     reporting,
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep2.Violations {
		if v.Rule == "R3-aggregate-display" {
			t.Errorf("R3 must not fire when analytics aggregates: %+v", v)
		}
	}
}

func TestR4ClearanceWithoutRegime(t *testing.T) {
	e := NewEngine()
	// Even under RegimeNone, analytics services are not cleared for raw
	// personal data, so the clearance rule fires.
	rep, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeNone, true),
		Composition:     pipelineWithoutAnonymization(t),
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "R4-sensitivity-clearance" {
			found = true
		}
	}
	if !found {
		t.Errorf("R4 must fire when a service lacks clearance: %+v", rep.Violations)
	}
	// Anonymisation upstream clears downstream services.
	rep2, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeNone, true),
		Composition:     pipelineWithAnonymization(t),
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep2.Violations {
		if v.Rule == "R4-sensitivity-clearance" {
			t.Errorf("R4 must not fire downstream of anonymisation: %+v", v)
		}
	}
}

func TestR5DataResidency(t *testing.T) {
	e := NewEngine()
	in := Input{
		Campaign:         campaign(model.RegimePseudonymize, true),
		Composition:      pipelineWithAnonymization(t),
		DataSensitivity:  storage.Personal,
		DeploymentRegion: "us",
	}
	rep, err := e.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "R5-data-residency" && strings.Contains(v.Message, `"us"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("R5 must fire for cross-region deployment: %+v", rep.Violations)
	}
	in.DeploymentRegion = "eu"
	rep2, _ := e.Evaluate(in)
	for _, v := range rep2.Violations {
		if v.Rule == "R5-data-residency" {
			t.Error("R5 must not fire when regions match")
		}
	}
	// RegimeNone ignores residency.
	in.Campaign = campaign(model.RegimeNone, true)
	in.DeploymentRegion = "us"
	rep3, _ := e.Evaluate(in)
	for _, v := range rep3.Violations {
		if v.Rule == "R5-data-residency" {
			t.Error("R5 must not fire under RegimeNone")
		}
	}
}

func TestR6NoRawExport(t *testing.T) {
	e := NewEngine()
	exporting := buildComposition(t, "ingest-batch", "clean-missing", "classify-logreg", "process-batch", "display-export")
	rep, err := e.Evaluate(Input{
		Campaign:        campaign(model.RegimeInternal, true),
		Composition:     exporting,
		DataSensitivity: storage.Personal,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "R6-no-raw-export" {
			found = true
		}
	}
	if !found {
		t.Errorf("R6 must fire for raw export of personal data: %+v", rep.Violations)
	}
	if rep.PrivacyScore > 0.11 {
		t.Errorf("raw export privacy score = %v, want <= 0.1", rep.PrivacyScore)
	}
}

func TestInterferenceMonotonicity(t *testing.T) {
	// Central claim reproduced as Figure 1: tightening the regime can only
	// shrink (never grow) the set of compliant compositions.
	e := NewEngine()
	reg := catalog.DefaultRegistry()
	var compositions []*procedural.Composition
	for _, prep := range []string{"clean-missing", "pseudonymize-pii", "mask-strict"} {
		for _, display := range []string{"display-dashboard", "display-export"} {
			compositions = append(compositions, buildComposition(t, "ingest-batch", prep, "classify-logreg", "process-batch", display))
		}
	}
	_ = reg
	prevCompliant := len(compositions) + 1
	for _, regime := range model.Regimes() {
		compliant := 0
		for _, comp := range compositions {
			rep, err := e.Evaluate(Input{
				Campaign:        campaign(regime, true),
				Composition:     comp,
				DataSensitivity: storage.Personal,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Compliant() {
				compliant++
			}
		}
		if compliant > prevCompliant {
			t.Errorf("regime %s admits %d compliant options, more than the weaker regime (%d)",
				regime, compliant, prevCompliant)
		}
		prevCompliant = compliant
	}
}

func TestSeverityString(t *testing.T) {
	if Warning.String() != "warning" || Blocking.String() != "blocking" {
		t.Error("Severity.String misbehaves")
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{Violations: []Violation{
		{Rule: "a", Severity: Warning},
		{Rule: "b", Severity: Blocking},
		{Rule: "c", Severity: Blocking},
	}}
	if r.Compliant() {
		t.Error("report with blocking violations must not be compliant")
	}
	if !(Report{}).Compliant() {
		t.Error("empty report must be compliant")
	}
}
