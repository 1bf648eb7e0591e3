package model

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// validCampaign returns a minimal well-formed classification campaign.
func validCampaign() *Campaign {
	return &Campaign{
		Name:     "churn-prediction",
		Vertical: "telco",
		Goal: Goal{
			Task:           TaskClassification,
			Description:    "predict subscriber churn",
			TargetTable:    "telco_customers",
			LabelColumn:    "churned",
			FeatureColumns: []string{"tenure_months", "support_calls", "dropped_calls"},
		},
		Sources: []DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Objectives: []Objective{
			{Indicator: IndicatorAccuracy, Comparison: AtLeast, Target: 0.7, Hard: true},
			{Indicator: IndicatorCost, Comparison: AtMost, Target: 5.0, Weight: 2},
		},
		Regime: RegimePseudonymize,
	}
}

func TestAreas(t *testing.T) {
	areas := Areas()
	if len(areas) != 5 {
		t.Fatalf("areas = %d, want 5", len(areas))
	}
	if AreaRepresentation.Order() != 0 || AreaDisplay.Order() != 4 {
		t.Error("area ordering wrong")
	}
	if Area("bogus").Order() != -1 || Area("bogus").Valid() {
		t.Error("unknown area must be invalid")
	}
	if !AreaAnalytics.Valid() {
		t.Error("analytics area must be valid")
	}
}

func TestTasksAndIndicators(t *testing.T) {
	if len(Tasks()) != 7 {
		t.Errorf("tasks = %d, want 7", len(Tasks()))
	}
	if !TaskClassification.Valid() || AnalyticsTask("x").Valid() {
		t.Error("task validity misbehaves")
	}
	if len(Indicators()) != 6 {
		t.Errorf("indicators = %d, want 6", len(Indicators()))
	}
	if !IndicatorAccuracy.Valid() || Indicator("x").Valid() {
		t.Error("indicator validity misbehaves")
	}
}

func TestComparison(t *testing.T) {
	if !AtLeast.Satisfied(0.8, 0.7) || AtLeast.Satisfied(0.6, 0.7) {
		t.Error("AtLeast misbehaves")
	}
	if !AtMost.Satisfied(3, 5) || AtMost.Satisfied(6, 5) {
		t.Error("AtMost misbehaves")
	}
	if Comparison("==").Satisfied(1, 1) {
		t.Error("unknown comparison must never be satisfied")
	}
	if !AtLeast.Valid() || Comparison("!").Valid() {
		t.Error("comparison validity misbehaves")
	}
}

func TestObjectiveValidate(t *testing.T) {
	good := Objective{Indicator: IndicatorAccuracy, Comparison: AtLeast, Target: 0.8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid objective rejected: %v", err)
	}
	if good.EffectiveWeight() != 1 {
		t.Error("default weight must be 1")
	}
	weighted := Objective{Indicator: IndicatorCost, Comparison: AtMost, Target: 1, Weight: 3}
	if weighted.EffectiveWeight() != 3 {
		t.Error("explicit weight must pass through")
	}
	bad := []Objective{
		{Indicator: "x", Comparison: AtLeast},
		{Indicator: IndicatorCost, Comparison: "=="},
		{Indicator: IndicatorCost, Comparison: AtMost, Weight: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad objective %d accepted", i)
		}
	}
}

func TestPrivacyRegimes(t *testing.T) {
	if RegimeNone.Level() != 0 || RegimeStrict.Level() != 3 {
		t.Error("regime levels wrong")
	}
	if PrivacyRegime("x").Valid() || !RegimePseudonymize.Valid() {
		t.Error("regime validity misbehaves")
	}
	if RegimeStrict.Level() <= RegimePseudonymize.Level() {
		t.Error("strict must be more restrictive than pseudonymize")
	}
}

func TestCampaignValidate(t *testing.T) {
	if err := validCampaign().Validate(); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	var nilCampaign *Campaign
	if err := nilCampaign.Validate(); !errors.Is(err, ErrInvalidCampaign) {
		t.Error("nil campaign must be invalid")
	}

	broken := func(mutate func(*Campaign)) error {
		c := validCampaign()
		mutate(c)
		return c.Validate()
	}
	cases := map[string]func(*Campaign){
		"empty name":           func(c *Campaign) { c.Name = " " },
		"bad task":             func(c *Campaign) { c.Goal.Task = "mining" },
		"empty target":         func(c *Campaign) { c.Goal.TargetTable = "" },
		"no sources":           func(c *Campaign) { c.Sources = nil },
		"empty source table":   func(c *Campaign) { c.Sources = []DataSource{{Table: ""}} },
		"target not declared":  func(c *Campaign) { c.Sources = []DataSource{{Table: "other"}} },
		"bad regime":           func(c *Campaign) { c.Regime = "gdpr" },
		"bad objective":        func(c *Campaign) { c.Objectives = []Objective{{Indicator: "x"}} },
		"missing label":        func(c *Campaign) { c.Goal.LabelColumn = "" },
		"missing features":     func(c *Campaign) { c.Goal.FeatureColumns = nil },
		"negative budget":      func(c *Campaign) { c.Preferences.MaxBudget = -1 },
		"negative parallelism": func(c *Campaign) { c.Preferences.Parallelism = -2 },
	}
	for name, mutate := range cases {
		if err := broken(mutate); !errors.Is(err, ErrInvalidCampaign) {
			t.Errorf("%s: err = %v, want ErrInvalidCampaign", name, err)
		}
	}
}

func TestCampaignValidatePerTaskRequirements(t *testing.T) {
	base := func(task AnalyticsTask) *Campaign {
		c := validCampaign()
		c.Goal = Goal{Task: task, TargetTable: "telco_customers"}
		return c
	}
	if err := base(TaskClustering).Validate(); err == nil {
		t.Error("clustering without features must fail")
	}
	if err := base(TaskAssociation).Validate(); err == nil {
		t.Error("association without item/transaction columns must fail")
	}
	if err := base(TaskAnomaly).Validate(); err == nil {
		t.Error("anomaly without value column must fail")
	}
	if err := base(TaskForecasting).Validate(); err == nil {
		t.Error("forecasting without value column must fail")
	}
	if err := base(TaskSessionization).Validate(); err == nil {
		t.Error("sessionization without time column must fail")
	}
	if err := base(TaskReporting).Validate(); err == nil {
		t.Error("reporting without value/group columns must fail")
	}

	ok := base(TaskReporting)
	ok.Goal.ValueColumn = "monthly_charge"
	ok.Goal.GroupColumns = []string{"region"}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid reporting campaign rejected: %v", err)
	}
}

func TestCampaignHelpers(t *testing.T) {
	c := validCampaign()
	hard := c.HardObjectives()
	if len(hard) != 1 || hard[0].Indicator != IndicatorAccuracy {
		t.Errorf("hard objectives = %v", hard)
	}
	o, ok := c.ObjectiveFor(IndicatorCost)
	if !ok || o.Target != 5.0 {
		t.Errorf("ObjectiveFor(cost) = %v, %v", o, ok)
	}
	if _, ok := c.ObjectiveFor(IndicatorFreshness); ok {
		t.Error("missing objective must report !ok")
	}
}

func TestCampaignJSONRoundTrip(t *testing.T) {
	c := validCampaign()
	var buf bytes.Buffer
	if err := c.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != c.Name || back.Goal.Task != c.Goal.Task || len(back.Objectives) != 2 {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"name": }`)); err == nil {
		t.Error("malformed JSON must fail")
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown fields must be rejected")
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"name":"x"}`)); !errors.Is(err, ErrInvalidCampaign) {
		t.Error("decoded campaigns must be validated")
	}
}

func TestCampaignClone(t *testing.T) {
	c := validCampaign()
	clone := c.Clone()
	clone.Name = "other"
	clone.Sources[0].Table = "changed"
	clone.Objectives[0].Target = 0.99
	clone.Goal.FeatureColumns[0] = "changed"
	if c.Name != "churn-prediction" || c.Sources[0].Table != "telco_customers" ||
		c.Objectives[0].Target != 0.7 || c.Goal.FeatureColumns[0] != "tenure_months" {
		t.Error("Clone must not share mutable state")
	}
	var nilC *Campaign
	if nilC.Clone() != nil {
		t.Error("cloning nil must return nil")
	}
}
