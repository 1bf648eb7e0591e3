// Package model defines the declarative layer of the TOREADOR methodology:
// business-level Big Data campaigns expressed as goals, indicators, objectives
// and preferences, independent of any technology choice.
//
// The paper (§2) describes Big Data Analytics-as-a-Service as "a function that
// takes as input users' Big Data goals and preferences, and returns as output
// a ready-to-be-executed Big Data pipeline", and argues for "a core set of
// standard indicators" covering both analytics tasks and regulatory
// constraints. This package is that input vocabulary.
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Area is one of the five TOREADOR design areas a Big Data campaign is
// decomposed into. Services in the catalog belong to exactly one area and a
// procedural model orders areas from representation to display.
type Area string

// The five areas, in pipeline order.
const (
	AreaRepresentation Area = "representation" // data source registration and modelling
	AreaPreparation    Area = "preparation"    // cleaning, anonymisation, feature engineering
	AreaAnalytics      Area = "analytics"      // the analytics task itself
	AreaProcessing     Area = "processing"     // the execution/processing style (batch, streaming)
	AreaDisplay        Area = "display"        // reporting and result delivery
)

// Areas returns every area in pipeline order.
func Areas() []Area {
	return []Area{AreaRepresentation, AreaPreparation, AreaAnalytics, AreaProcessing, AreaDisplay}
}

// Order returns the position of the area in the pipeline (0-based), or -1 for
// unknown areas.
func (a Area) Order() int {
	for i, area := range Areas() {
		if a == area {
			return i
		}
	}
	return -1
}

// Valid reports whether a is one of the five TOREADOR areas.
func (a Area) Valid() bool { return a.Order() >= 0 }

// AnalyticsTask enumerates the analytics goals supported by the platform.
type AnalyticsTask string

// Supported analytics tasks.
const (
	TaskClassification AnalyticsTask = "classification"
	TaskClustering     AnalyticsTask = "clustering"
	TaskAssociation    AnalyticsTask = "association_rules"
	TaskAnomaly        AnalyticsTask = "anomaly_detection"
	TaskForecasting    AnalyticsTask = "forecasting"
	TaskSessionization AnalyticsTask = "sessionization"
	TaskReporting      AnalyticsTask = "reporting"
)

// Tasks returns every supported analytics task.
func Tasks() []AnalyticsTask {
	return []AnalyticsTask{
		TaskClassification, TaskClustering, TaskAssociation, TaskAnomaly,
		TaskForecasting, TaskSessionization, TaskReporting,
	}
}

// Valid reports whether t is a supported task.
func (t AnalyticsTask) Valid() bool {
	for _, task := range Tasks() {
		if t == task {
			return true
		}
	}
	return false
}

// Indicator names a measurable property of a campaign, following the paper's
// call for "a core set of standard indicators".
type Indicator string

// The standard indicator set.
const (
	// IndicatorAccuracy is the quality of the analytics output in [0,1]
	// (classification accuracy, detection F1, or 1/(1+RMSE) for forecasts).
	IndicatorAccuracy Indicator = "accuracy"
	// IndicatorLatency is the end-to-end pipeline execution time in
	// milliseconds.
	IndicatorLatency Indicator = "latency_ms"
	// IndicatorCost is the monetary cost of one campaign execution.
	IndicatorCost Indicator = "cost"
	// IndicatorThroughput is processed rows per second.
	IndicatorThroughput Indicator = "throughput_rows_s"
	// IndicatorPrivacy is the achieved privacy protection level in [0,1]
	// (0 = raw personal data exposed, 1 = fully anonymised or no personal data).
	IndicatorPrivacy Indicator = "privacy_level"
	// IndicatorFreshness is the data freshness in seconds between ingestion
	// and result availability (streaming campaigns target small values).
	IndicatorFreshness Indicator = "freshness_s"
)

// Indicators returns the full standard indicator set.
func Indicators() []Indicator {
	return []Indicator{
		IndicatorAccuracy, IndicatorLatency, IndicatorCost,
		IndicatorThroughput, IndicatorPrivacy, IndicatorFreshness,
	}
}

// Valid reports whether i is a standard indicator.
func (i Indicator) Valid() bool {
	for _, ind := range Indicators() {
		if i == ind {
			return true
		}
	}
	return false
}

// Comparison is the relational operator of an objective.
type Comparison string

// Supported comparisons.
const (
	AtLeast Comparison = ">="
	AtMost  Comparison = "<="
)

// Satisfied reports whether measured satisfies the comparison against target.
func (c Comparison) Satisfied(measured, target float64) bool {
	switch c {
	case AtLeast:
		return measured >= target
	case AtMost:
		return measured <= target
	default:
		return false
	}
}

// Valid reports whether c is a supported comparison.
func (c Comparison) Valid() bool { return c == AtLeast || c == AtMost }

// Objective is a target on an indicator, as defined in the paper: "Big Data
// objectives representing the target to be achieved for fulfilling the goal".
type Objective struct {
	// Indicator being constrained.
	Indicator Indicator `json:"indicator"`
	// Comparison direction.
	Comparison Comparison `json:"comparison"`
	// Target value.
	Target float64 `json:"target"`
	// Weight of the objective in the overall campaign score (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Hard objectives must be met for an alternative to be acceptable;
	// soft objectives only affect the score.
	Hard bool `json:"hard,omitempty"`
}

// Validate reports objective configuration problems.
func (o Objective) Validate() error {
	if !o.Indicator.Valid() {
		return fmt.Errorf("model: unknown indicator %q", o.Indicator)
	}
	if !o.Comparison.Valid() {
		return fmt.Errorf("model: unknown comparison %q", o.Comparison)
	}
	if o.Weight < 0 {
		return fmt.Errorf("model: negative weight %v for %s", o.Weight, o.Indicator)
	}
	return nil
}

// EffectiveWeight returns the weight with the default of 1 applied.
func (o Objective) EffectiveWeight() float64 {
	if o.Weight <= 0 {
		return 1
	}
	return o.Weight
}

// PrivacyRegime classifies the regulatory constraints on the campaign's data,
// the "regulatory barrier" of the paper's introduction.
type PrivacyRegime string

// Supported regimes, from least to most restrictive.
const (
	// RegimeNone: data is public or fully synthetic; no restriction.
	RegimeNone PrivacyRegime = "none"
	// RegimeInternal: data may not leave the platform but needs no
	// transformation.
	RegimeInternal PrivacyRegime = "internal"
	// RegimePseudonymize: personal data must be pseudonymised before any
	// analytics service processes it.
	RegimePseudonymize PrivacyRegime = "pseudonymize"
	// RegimeStrict: personal data must be anonymised and only aggregate
	// results may reach the display area.
	RegimeStrict PrivacyRegime = "strict"
)

// Regimes returns all regimes ordered from least to most restrictive.
func Regimes() []PrivacyRegime {
	return []PrivacyRegime{RegimeNone, RegimeInternal, RegimePseudonymize, RegimeStrict}
}

// Level returns the restrictiveness rank of the regime (0 = none), or -1 for
// unknown regimes.
func (r PrivacyRegime) Level() int {
	for i, regime := range Regimes() {
		if r == regime {
			return i
		}
	}
	return -1
}

// Valid reports whether r is a known regime.
func (r PrivacyRegime) Valid() bool { return r.Level() >= 0 }

// DataSource references a dataset registered with the platform.
type DataSource struct {
	// Table is the registered table name.
	Table string `json:"table"`
	// ContainsPersonalData declares whether the source holds PII; the
	// compliance engine cross-checks this against the schema sensitivity.
	ContainsPersonalData bool `json:"contains_personal_data,omitempty"`
	// Region is the jurisdiction where the data resides (e.g. "eu", "us").
	Region string `json:"region,omitempty"`
}

// Goal describes what the campaign must achieve, in business terms.
type Goal struct {
	// Task is the analytics task type.
	Task AnalyticsTask `json:"task"`
	// Description is free business text ("reduce churn by spotting at-risk
	// subscribers").
	Description string `json:"description,omitempty"`
	// TargetTable is the primary table the task operates on.
	TargetTable string `json:"target_table"`
	// LabelColumn is the ground-truth column for supervised tasks and for
	// scoring detection tasks; empty otherwise.
	LabelColumn string `json:"label_column,omitempty"`
	// FeatureColumns are the numeric input columns for learning tasks.
	FeatureColumns []string `json:"feature_columns,omitempty"`
	// ItemColumn and TransactionColumn configure association mining.
	ItemColumn        string `json:"item_column,omitempty"`
	TransactionColumn string `json:"transaction_column,omitempty"`
	// ValueColumn is the measure column for forecasting, anomaly detection
	// and reporting.
	ValueColumn string `json:"value_column,omitempty"`
	// TimeColumn orders events for forecasting and sessionization.
	TimeColumn string `json:"time_column,omitempty"`
	// GroupColumns are the grouping keys for reporting.
	GroupColumns []string `json:"group_columns,omitempty"`
}

// Preferences captures the user's non-functional choices that steer, without
// fully determining, the generated pipeline.
type Preferences struct {
	// Streaming prefers a streaming deployment when true.
	Streaming bool `json:"streaming,omitempty"`
	// MaxBudget caps the acceptable cost per execution (0 = unlimited).
	MaxBudget float64 `json:"max_budget,omitempty"`
	// PreferredRegion pins the deployment region ("" = any).
	PreferredRegion string `json:"preferred_region,omitempty"`
	// Parallelism is the requested degree of parallelism (0 = let the
	// platform decide).
	Parallelism int `json:"parallelism,omitempty"`
}

// Campaign is the complete declarative model of one Big Data campaign.
type Campaign struct {
	// Name uniquely identifies the campaign.
	Name string `json:"name"`
	// Vertical is the application domain (matches a Labs scenario).
	Vertical string `json:"vertical,omitempty"`
	// Goal is the analytics goal.
	Goal Goal `json:"goal"`
	// Sources are the declared input datasets.
	Sources []DataSource `json:"sources"`
	// Objectives are the indicator targets.
	Objectives []Objective `json:"objectives,omitempty"`
	// Regime is the applicable privacy regime.
	Regime PrivacyRegime `json:"regime"`
	// Preferences are non-functional preferences.
	Preferences Preferences `json:"preferences,omitempty"`
}

// Validation errors.
var (
	ErrInvalidCampaign = errors.New("model: invalid campaign")
)

// Validate checks the declarative model for internal consistency. It does not
// resolve table names — that requires the platform's data catalog and happens
// at compile time.
func (c *Campaign) Validate() error {
	if c == nil {
		return fmt.Errorf("%w: nil campaign", ErrInvalidCampaign)
	}
	var problems []string
	if strings.TrimSpace(c.Name) == "" {
		problems = append(problems, "name is empty")
	}
	if !c.Goal.Task.Valid() {
		problems = append(problems, fmt.Sprintf("unknown task %q", c.Goal.Task))
	}
	if strings.TrimSpace(c.Goal.TargetTable) == "" {
		problems = append(problems, "goal.target_table is empty")
	}
	if len(c.Sources) == 0 {
		problems = append(problems, "no data sources")
	}
	targetDeclared := false
	for i, s := range c.Sources {
		if strings.TrimSpace(s.Table) == "" {
			problems = append(problems, fmt.Sprintf("source %d has empty table", i))
		}
		if s.Table == c.Goal.TargetTable {
			targetDeclared = true
		}
	}
	if !targetDeclared && c.Goal.TargetTable != "" {
		problems = append(problems, fmt.Sprintf("target table %q is not among the declared sources", c.Goal.TargetTable))
	}
	if !c.Regime.Valid() {
		problems = append(problems, fmt.Sprintf("unknown privacy regime %q", c.Regime))
	}
	for i, o := range c.Objectives {
		if err := o.Validate(); err != nil {
			problems = append(problems, fmt.Sprintf("objective %d: %v", i, err))
		}
	}
	switch c.Goal.Task {
	case TaskClassification:
		if c.Goal.LabelColumn == "" {
			problems = append(problems, "classification requires goal.label_column")
		}
		if len(c.Goal.FeatureColumns) == 0 {
			problems = append(problems, "classification requires goal.feature_columns")
		}
	case TaskClustering:
		if len(c.Goal.FeatureColumns) == 0 {
			problems = append(problems, "clustering requires goal.feature_columns")
		}
	case TaskAssociation:
		if c.Goal.ItemColumn == "" || c.Goal.TransactionColumn == "" {
			problems = append(problems, "association mining requires goal.item_column and goal.transaction_column")
		}
	case TaskAnomaly, TaskForecasting:
		if c.Goal.ValueColumn == "" {
			problems = append(problems, fmt.Sprintf("%s requires goal.value_column", c.Goal.Task))
		}
	case TaskSessionization:
		if c.Goal.TimeColumn == "" {
			problems = append(problems, "sessionization requires goal.time_column")
		}
	case TaskReporting:
		if c.Goal.ValueColumn == "" || len(c.Goal.GroupColumns) == 0 {
			problems = append(problems, "reporting requires goal.value_column and goal.group_columns")
		}
	}
	if c.Preferences.MaxBudget < 0 {
		problems = append(problems, "negative max_budget")
	}
	if c.Preferences.Parallelism < 0 {
		problems = append(problems, "negative parallelism")
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %s", ErrInvalidCampaign, strings.Join(problems, "; "))
	}
	return nil
}

// HardObjectives returns only the hard objectives.
func (c *Campaign) HardObjectives() []Objective {
	var out []Objective
	for _, o := range c.Objectives {
		if o.Hard {
			out = append(out, o)
		}
	}
	return out
}

// ObjectiveFor returns the first objective on the given indicator, if any.
func (c *Campaign) ObjectiveFor(ind Indicator) (Objective, bool) {
	for _, o := range c.Objectives {
		if o.Indicator == ind {
			return o, true
		}
	}
	return Objective{}, false
}

// EncodeJSON writes the campaign as indented JSON.
func (c *Campaign) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("model: encode campaign %q: %w", c.Name, err)
	}
	return nil
}

// DecodeCampaign parses a campaign from JSON and validates it.
func DecodeCampaign(r io.Reader) (*Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("model: decode campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Clone returns a deep copy of the campaign.
func (c *Campaign) Clone() *Campaign {
	if c == nil {
		return nil
	}
	out := *c
	out.Sources = append([]DataSource(nil), c.Sources...)
	out.Objectives = append([]Objective(nil), c.Objectives...)
	out.Goal.FeatureColumns = append([]string(nil), c.Goal.FeatureColumns...)
	out.Goal.GroupColumns = append([]string(nil), c.Goal.GroupColumns...)
	return &out
}
