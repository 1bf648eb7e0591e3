package catalog

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

func validDescriptor() Descriptor {
	return Descriptor{
		ID: "test-svc", Name: "Test service", Area: model.AreaPreparation,
		Capability: "test", MaxSensitivity: storage.Internal,
		SupportsBatch: true, CostPerKRows: 0.01, MillisPerKRows: 1, Quality: 0,
	}
}

func TestDescriptorValidate(t *testing.T) {
	if err := validDescriptor().Validate(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	mutations := map[string]func(*Descriptor){
		"empty id":             func(d *Descriptor) { d.ID = "" },
		"empty name":           func(d *Descriptor) { d.Name = " " },
		"bad area":             func(d *Descriptor) { d.Area = "somewhere" },
		"analytics no task":    func(d *Descriptor) { d.Area = model.AreaAnalytics },
		"task outside area":    func(d *Descriptor) { d.Task = model.TaskClustering },
		"empty capability":     func(d *Descriptor) { d.Capability = "" },
		"no processing style":  func(d *Descriptor) { d.SupportsBatch = false },
		"negative cost":        func(d *Descriptor) { d.CostPerKRows = -1 },
		"negative latency":     func(d *Descriptor) { d.MillisPerKRows = -1 },
		"quality out of range": func(d *Descriptor) { d.Quality = 1.5 },
	}
	for name, mutate := range mutations {
		d := validDescriptor()
		mutate(&d)
		if err := d.Validate(); !errors.Is(err, ErrInvalidService) {
			t.Errorf("%s: err = %v, want ErrInvalidService", name, err)
		}
	}
}

func TestDescriptorEstimates(t *testing.T) {
	d := Descriptor{CostPerKRows: 0.5, MillisPerKRows: 100}
	if got := d.EstimateCost(2000); got != 1.0 {
		t.Errorf("cost = %v, want 1.0", got)
	}
	if got := d.EstimateCost(0); got != 0 {
		t.Errorf("cost of 0 rows = %v", got)
	}
	if got := d.EstimateLatencyMillis(2000, 1); got != 200 {
		t.Errorf("latency = %v, want 200", got)
	}
	if got := d.EstimateLatencyMillis(2000, 4); got != 50 {
		t.Errorf("parallel latency = %v, want 50", got)
	}
	if got := d.EstimateLatencyMillis(2000, 0); got != 200 {
		t.Errorf("latency with parallelism 0 = %v, want 200 (clamped to 1)", got)
	}
}

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(validDescriptor()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(validDescriptor()); !errors.Is(err, ErrDuplicateService) {
		t.Errorf("duplicate err = %v", err)
	}
	bad := validDescriptor()
	bad.ID = ""
	if err := r.Register(bad); !errors.Is(err, ErrInvalidService) {
		t.Errorf("invalid err = %v", err)
	}
	got, err := r.Get("test-svc")
	if err != nil || got.Name != "Test service" {
		t.Errorf("Get = %+v, %v", got, err)
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Errorf("unknown err = %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister must panic on invalid descriptor")
		}
	}()
	NewRegistry().MustRegister(Descriptor{})
}

func TestDefaultRegistryCoverage(t *testing.T) {
	r := DefaultRegistry()
	if r.Len() < 18 {
		t.Errorf("default registry has %d services, want >= 18", r.Len())
	}
	// Every area must be populated.
	for _, area := range model.Areas() {
		if len(r.ByArea(area)) == 0 {
			t.Errorf("area %s has no services", area)
		}
	}
	// Every analytics task must have at least one implementation, and
	// classification/forecasting/anomaly must have genuine alternatives.
	for _, task := range model.Tasks() {
		candidates := r.CandidatesForTask(task)
		if len(candidates) == 0 {
			t.Errorf("task %s has no services", task)
		}
	}
	if len(r.CandidatesForTask(model.TaskClassification)) < 3 {
		t.Error("classification needs at least 3 alternatives for the Labs comparisons")
	}
	if len(r.CandidatesForTask(model.TaskForecasting)) < 2 {
		t.Error("forecasting needs at least 2 alternatives")
	}
	if len(r.CandidatesForTask(model.TaskAnomaly)) < 2 {
		t.Error("anomaly detection needs at least 2 alternatives")
	}
	// Every descriptor must be individually valid.
	for _, d := range r.All() {
		if err := d.Validate(); err != nil {
			t.Errorf("built-in descriptor %s invalid: %v", d.ID, err)
		}
	}
}

func TestDefaultRegistryComplianceProperties(t *testing.T) {
	r := DefaultRegistry()
	// There must be at least one anonymising preparation service, otherwise
	// strict regimes can never be satisfied.
	anonymizers := 0
	for _, d := range r.ByArea(model.AreaPreparation) {
		if d.Anonymizes {
			anonymizers++
		}
	}
	if anonymizers < 2 {
		t.Errorf("preparation anonymizers = %d, want >= 2 (pseudonymize + strict mask)", anonymizers)
	}
	// Analytics services must not be cleared for raw personal data: that is
	// what forces the compiler to insert anonymisation steps.
	for _, d := range r.ByArea(model.AreaAnalytics) {
		if d.MaxSensitivity >= storage.Personal {
			t.Errorf("analytics service %s must not accept raw personal data", d.ID)
		}
	}
	// Both processing styles must be available for the deployment crossover
	// experiment.
	styles := map[string]bool{}
	for _, d := range r.ByArea(model.AreaProcessing) {
		if d.SupportsBatch {
			styles["batch"] = true
		}
		if d.SupportsStreaming {
			styles["stream"] = true
		}
	}
	if !styles["batch"] || !styles["stream"] {
		t.Error("processing area must offer both batch and streaming engines")
	}
	// Display must offer an aggregate-only option for strict campaigns.
	hasAggregateDisplay := false
	for _, d := range r.ByArea(model.AreaDisplay) {
		if d.Aggregates {
			hasAggregateDisplay = true
		}
	}
	if !hasAggregateDisplay {
		t.Error("display area must contain an aggregate-only service")
	}
}

func TestCandidatesForTaskOrdering(t *testing.T) {
	r := DefaultRegistry()
	candidates := r.CandidatesForTask(model.TaskClassification)
	for i := 1; i < len(candidates); i++ {
		if candidates[i].Quality > candidates[i-1].Quality {
			t.Error("candidates must be sorted by descending quality")
		}
	}
	if candidates[0].ID != "classify-logreg" {
		t.Errorf("best classifier = %s, want classify-logreg", candidates[0].ID)
	}
}

func TestByCapability(t *testing.T) {
	r := DefaultRegistry()
	if got := r.ByCapability("pseudonymize"); len(got) != 1 || got[0].ID != "pseudonymize-pii" {
		t.Errorf("ByCapability(pseudonymize) = %v", got)
	}
	if got := r.ByCapability("does-not-exist"); len(got) != 0 {
		t.Errorf("unknown capability = %v", got)
	}
}

func TestAllSorted(t *testing.T) {
	r := DefaultRegistry()
	all := r.All()
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Error("All must be sorted by id")
			break
		}
	}
	if len(all) != r.Len() {
		t.Errorf("All has %d descriptors, Len = %d", len(all), r.Len())
	}
	// All returns a copy: writing to it leaves the registry's lookups alone.
	first := all[0].ID
	all[0].ID = "zz-overwritten"
	if got := r.All()[0].ID; got != first {
		t.Errorf("All()[0] = %q after writing to an earlier result, want %q", got, first)
	}
}
