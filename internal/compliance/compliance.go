// Package compliance implements the regulatory-constraint engine of the
// platform: it evaluates a compiled service composition against the
// campaign's declared privacy regime and the actual sensitivity of the data,
// reporting violations and obligations.
//
// The paper motivates TOREADOR partly by the "regulatory barrier … concerns
// about violating data access, sharing and custody regulations when using
// BDA, and the high cost of obtaining legal clearance for specific
// scenarios". This engine is the executable form of that clearance step and
// one of the main sources of "interference" between design stages: a privacy
// choice made at the declarative level removes analytics and display options
// downstream (reproduced as Figure 1 by internal/experiments).
package compliance

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/procedural"
	"repro/internal/storage"
)

// Severity ranks how serious a violation is.
type Severity int

const (
	// Warning violations do not block deployment but reduce the privacy score.
	Warning Severity = iota
	// Blocking violations make the alternative non-compliant.
	Blocking
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Blocking {
		return "blocking"
	}
	return "warning"
}

// Violation is one detected policy breach.
type Violation struct {
	// Rule is the identifier of the rule that fired.
	Rule string
	// Severity of the breach.
	Severity Severity
	// Message explains the breach in user terms.
	Message string
}

// Report is the outcome of a compliance evaluation.
type Report struct {
	// Violations detected, in rule order.
	Violations []Violation
	// Obligations the operator must honour even when compliant
	// (e.g. "retain audit log", "purpose limitation").
	Obligations []string
	// PrivacyScore is the achieved privacy protection level in [0,1]; it maps
	// onto the standard privacy indicator.
	PrivacyScore float64
}

// Compliant reports whether the evaluation found no blocking violation.
func (r Report) Compliant() bool {
	for _, v := range r.Violations {
		if v.Severity == Blocking {
			return false
		}
	}
	return true
}

// Input is everything a rule can inspect.
type Input struct {
	// Campaign is the declarative model.
	Campaign *model.Campaign
	// Composition is the compiled procedural model under evaluation.
	Composition *procedural.Composition
	// DataSensitivity is the highest sensitivity actually present in the
	// campaign's source schemas (cross-checked against the declaration).
	DataSensitivity storage.Sensitivity
	// DeploymentRegion is the region the pipeline would be deployed to
	// ("" when not yet bound).
	DeploymentRegion string
}

// personalData reports whether the campaign handles personal data, either by
// declaration or by schema inspection.
func (in Input) personalData() bool {
	if in.DataSensitivity >= storage.Personal {
		return true
	}
	for _, s := range in.Campaign.Sources {
		if s.ContainsPersonalData {
			return true
		}
	}
	return false
}

// Rule is one compliance rule.
type Rule interface {
	// ID identifies the rule (stable, used in reports and ablations).
	ID() string
	// Evaluate returns the violations and obligations triggered by in.
	Evaluate(in Input) ([]Violation, []string)
}

// Errors returned by the engine.
var ErrBadInput = errors.New("compliance: bad input")

// Engine evaluates a fixed rule set.
type Engine struct {
	rules []Rule
}

// NewEngine returns an engine with the default TOREADOR rule set.
func NewEngine() *Engine {
	return &Engine{rules: DefaultRules()}
}

// Evaluate runs every rule and assembles the report.
func (e *Engine) Evaluate(in Input) (Report, error) {
	if in.Campaign == nil || in.Composition == nil {
		return Report{}, fmt.Errorf("%w: campaign and composition are required", ErrBadInput)
	}
	var report Report
	for _, rule := range e.rules {
		violations, obligations := rule.Evaluate(in)
		report.Violations = append(report.Violations, violations...)
		for _, o := range obligations {
			if !slices.Contains(report.Obligations, o) {
				report.Obligations = append(report.Obligations, o)
			}
		}
	}
	report.PrivacyScore = privacyScore(in, report)
	return report, nil
}

// privacyScore derives the achieved privacy level from the input and the
// detected violations.
func privacyScore(in Input, r Report) float64 {
	if !in.personalData() {
		return 1.0
	}
	score := 0.0
	switch {
	case in.Composition.HasCapability("anonymize_strict"):
		score = 1.0
	case in.Composition.HasAnonymization():
		score = 0.8
	default:
		score = 0.3
	}
	// Record-level export of personal data without anonymisation is the worst
	// case.
	if score <= 0.3 && in.Composition.HasCapability("display_export") {
		score = 0.1
	}
	// Blocking violations cap the score.
	if !r.Compliant() && score > 0.5 {
		score = 0.5
	}
	return score
}

// DefaultRules returns the built-in rule set, in evaluation order.
func DefaultRules() []Rule {
	return []Rule{
		anonymizeBeforeAnalyticsRule{},
		strictAnonymizerRule{},
		aggregateDisplayRule{},
		clearanceRule{},
		regionRule{},
		exportRule{},
		retentionObligationRule{},
	}
}

// ---------------------------------------------------------------------------
// Built-in rules
// ---------------------------------------------------------------------------

// anonymizeBeforeAnalyticsRule: under pseudonymize/strict regimes, personal
// data must pass an anonymising preparation step before analytics.
type anonymizeBeforeAnalyticsRule struct{}

func (anonymizeBeforeAnalyticsRule) ID() string { return "R1-anonymize-before-analytics" }

func (r anonymizeBeforeAnalyticsRule) Evaluate(in Input) ([]Violation, []string) {
	if !in.personalData() || in.Campaign.Regime.Level() < model.RegimePseudonymize.Level() {
		return nil, nil
	}
	if in.Composition.HasAnonymization() {
		return nil, []string{"record anonymisation mapping in the processing register"}
	}
	return []Violation{{
		Rule:     r.ID(),
		Severity: Blocking,
		Message: fmt.Sprintf("regime %q requires an anonymising preparation step before analytics on personal data",
			in.Campaign.Regime),
	}}, nil
}

// strictAnonymizerRule: the strict regime requires full anonymisation, not
// mere pseudonymisation.
type strictAnonymizerRule struct{}

func (strictAnonymizerRule) ID() string { return "R2-strict-anonymizer" }

func (r strictAnonymizerRule) Evaluate(in Input) ([]Violation, []string) {
	if !in.personalData() || in.Campaign.Regime != model.RegimeStrict {
		return nil, nil
	}
	if in.Composition.HasCapability("anonymize_strict") {
		return nil, nil
	}
	if in.Composition.HasAnonymization() {
		return []Violation{{
			Rule:     r.ID(),
			Severity: Blocking,
			Message:  "strict regime requires full anonymisation; pseudonymisation is not sufficient",
		}}, nil
	}
	// No anonymisation at all is already reported by R1; stay silent to avoid
	// double counting.
	return nil, nil
}

// aggregateDisplayRule: under the strict regime only aggregate results may
// reach the display area.
type aggregateDisplayRule struct{}

func (aggregateDisplayRule) ID() string { return "R3-aggregate-display" }

func (r aggregateDisplayRule) Evaluate(in Input) ([]Violation, []string) {
	if !in.personalData() || in.Campaign.Regime != model.RegimeStrict {
		return nil, nil
	}
	var violations []Violation
	analyticsAggregates := false
	if step, ok := in.Composition.AnalyticsStep(); ok && step.Service.Aggregates {
		analyticsAggregates = true
	}
	for _, step := range in.Composition.StepsByArea(model.AreaDisplay) {
		if !step.Service.Aggregates && !analyticsAggregates {
			violations = append(violations, Violation{
				Rule:     r.ID(),
				Severity: Blocking,
				Message: fmt.Sprintf("display step %q delivers record-level results, but the strict regime only allows aggregates",
					step.ID),
			})
		}
	}
	return violations, nil
}

// clearanceRule: no service may process data above its sensitivity clearance
// unless an anonymisation step runs upstream.
type clearanceRule struct{}

func (clearanceRule) ID() string { return "R4-sensitivity-clearance" }

func (r clearanceRule) Evaluate(in Input) ([]Violation, []string) {
	order, err := in.Composition.Order()
	if err != nil {
		return []Violation{{Rule: r.ID(), Severity: Blocking, Message: "composition is not a DAG"}}, nil
	}
	effective := in.DataSensitivity
	if !in.personalData() && effective > storage.Internal {
		effective = storage.Internal
	}
	var violations []Violation
	for _, k := range order {
		step := &in.Composition.Steps[k]
		if step.Service.Anonymizes {
			// Downstream of anonymisation the data is no longer personal.
			if effective > storage.Internal {
				effective = storage.Internal
			}
			continue
		}
		if effective > step.Service.MaxSensitivity {
			violations = append(violations, Violation{
				Rule:     r.ID(),
				Severity: Blocking,
				Message: fmt.Sprintf("step %q (%s) is cleared for %s data but receives %s data",
					step.ID, step.Service.ID, step.Service.MaxSensitivity, effective),
			})
		}
	}
	return violations, nil
}

// regionRule: when a source declares a region and the regime restricts
// custody, the deployment must stay in that region.
type regionRule struct{}

func (regionRule) ID() string { return "R5-data-residency" }

func (r regionRule) Evaluate(in Input) ([]Violation, []string) {
	if in.Campaign.Regime.Level() < model.RegimeInternal.Level() || in.DeploymentRegion == "" {
		return nil, nil
	}
	var violations []Violation
	for _, src := range in.Campaign.Sources {
		if src.Region != "" && src.Region != in.DeploymentRegion {
			violations = append(violations, Violation{
				Rule:     r.ID(),
				Severity: Blocking,
				Message: fmt.Sprintf("source %q resides in %q but the pipeline deploys to %q",
					src.Table, src.Region, in.DeploymentRegion),
			})
		}
	}
	return violations, nil
}

// exportRule: internal-or-stricter regimes disallow record-level export of
// personal data that was not anonymised.
type exportRule struct{}

func (exportRule) ID() string { return "R6-no-raw-export" }

func (r exportRule) Evaluate(in Input) ([]Violation, []string) {
	if !in.personalData() || in.Campaign.Regime.Level() < model.RegimeInternal.Level() {
		return nil, nil
	}
	if !in.Composition.HasCapability("display_export") || in.Composition.HasAnonymization() {
		return nil, nil
	}
	return []Violation{{
		Rule:     r.ID(),
		Severity: Blocking,
		Message:  "record-level export of personal data requires prior anonymisation under this regime",
	}}, nil
}

// retentionObligationRule never blocks; it attaches the standard data-handling
// obligations whenever personal data is processed.
type retentionObligationRule struct{}

func (retentionObligationRule) ID() string { return "R7-retention-obligations" }

func (r retentionObligationRule) Evaluate(in Input) ([]Violation, []string) {
	if !in.personalData() {
		return nil, nil
	}
	obligations := []string{
		"limit processing to the declared campaign purpose",
		"delete intermediate datasets within the retention window",
	}
	if in.Campaign.Regime.Level() >= model.RegimePseudonymize.Level() {
		obligations = append(obligations, "appoint a processing register entry for this campaign")
	}
	return nil, obligations
}
