// Package catalog implements the TOREADOR service catalog: the registry of
// concrete services the model-driven compiler can choose from when turning a
// declarative campaign into a procedural service composition.
//
// Each service belongs to one of the five design areas and carries the
// capability, compliance, cost and quality metadata the compiler, the
// compliance engine and the planner need to enumerate and compare
// alternatives ("identify alternative options, and investigate the
// consequences of their choices", §3 of the paper).
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/storage"
)

// Errors returned by the registry.
var (
	ErrDuplicateService = errors.New("catalog: duplicate service id")
	ErrUnknownService   = errors.New("catalog: unknown service")
	ErrInvalidService   = errors.New("catalog: invalid service descriptor")
)

// Descriptor describes one service offered by the platform.
type Descriptor struct {
	// ID uniquely identifies the service (kebab-case).
	ID string `json:"id"`
	// Name is the human-readable service name.
	Name string `json:"name"`
	// Area is the design area the service belongs to.
	Area model.Area `json:"area"`
	// Task is the analytics task implemented by the service; empty for
	// non-analytics areas.
	Task model.AnalyticsTask `json:"task,omitempty"`
	// Capability is a machine-readable tag of what the service does
	// (e.g. "pseudonymize", "ingest_batch", "report_dashboard").
	Capability string `json:"capability"`
	// MaxSensitivity is the highest data sensitivity the service is cleared
	// to process without a prior anonymisation step.
	MaxSensitivity storage.Sensitivity `json:"max_sensitivity"`
	// Anonymizes reports whether the service reduces data sensitivity
	// (pseudonymisation / masking).
	Anonymizes bool `json:"anonymizes,omitempty"`
	// Aggregates reports whether the service outputs only aggregate data
	// (no record-level rows), which matters under the strict regime.
	Aggregates bool `json:"aggregates,omitempty"`
	// SupportsBatch / SupportsStreaming report the processing styles the
	// service can run under.
	SupportsBatch     bool `json:"supports_batch"`
	SupportsStreaming bool `json:"supports_streaming"`
	// CostPerKRows is the monetary cost of processing 1000 rows.
	CostPerKRows float64 `json:"cost_per_k_rows"`
	// MillisPerKRows is the estimated latency contribution per 1000 rows.
	MillisPerKRows float64 `json:"millis_per_k_rows"`
	// Quality is the expected analytics quality in [0,1]; 0 for services
	// whose quality is not meaningful (ingestion, display).
	Quality float64 `json:"quality,omitempty"`
	// Params carries service-specific default parameters.
	Params map[string]string `json:"params,omitempty"`
}

// Validate reports descriptor problems.
func (d Descriptor) Validate() error {
	var problems []string
	if strings.TrimSpace(d.ID) == "" {
		problems = append(problems, "id is empty")
	}
	if strings.TrimSpace(d.Name) == "" {
		problems = append(problems, "name is empty")
	}
	if !d.Area.Valid() {
		problems = append(problems, fmt.Sprintf("unknown area %q", d.Area))
	}
	if d.Area == model.AreaAnalytics && !d.Task.Valid() {
		problems = append(problems, "analytics services must declare a task")
	}
	if d.Area != model.AreaAnalytics && d.Task != "" {
		problems = append(problems, "non-analytics services must not declare a task")
	}
	if strings.TrimSpace(d.Capability) == "" {
		problems = append(problems, "capability is empty")
	}
	if !d.SupportsBatch && !d.SupportsStreaming {
		problems = append(problems, "service must support batch, streaming, or both")
	}
	if d.CostPerKRows < 0 || d.MillisPerKRows < 0 {
		problems = append(problems, "negative cost or latency")
	}
	if d.Quality < 0 || d.Quality > 1 {
		problems = append(problems, fmt.Sprintf("quality %v out of [0,1]", d.Quality))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w (%s): %s", ErrInvalidService, d.ID, strings.Join(problems, "; "))
	}
	return nil
}

// EstimateCost returns the monetary cost of processing rows records.
func (d Descriptor) EstimateCost(rows int) float64 {
	if rows <= 0 {
		return 0
	}
	return d.CostPerKRows * float64(rows) / 1000
}

// EstimateLatencyMillis returns the estimated latency contribution in
// milliseconds when processing rows records with the given parallelism.
func (d Descriptor) EstimateLatencyMillis(rows, parallelism int) float64 {
	if rows <= 0 {
		return 0
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return d.MillisPerKRows * float64(rows) / 1000 / float64(parallelism)
}

// Registry stores service descriptors. The zero value is not usable; use
// NewRegistry or DefaultRegistry.
type Registry struct {
	mu       sync.RWMutex
	services map[string]Descriptor
	// sorted holds every descriptor in id order. Register replaces it and
	// never modifies it in place, so a reader may keep the snapshot it read.
	sorted []Descriptor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]Descriptor)}
}

// Register validates and adds a descriptor.
func (r *Registry) Register(d Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.services[d.ID]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateService, d.ID)
	}
	r.services[d.ID] = d
	at, _ := slices.BinarySearchFunc(r.sorted, d.ID, func(e Descriptor, id string) int { return strings.Compare(e.ID, id) })
	next := make([]Descriptor, 0, len(r.sorted)+1)
	next = append(next, r.sorted[:at]...)
	next = append(next, d)
	r.sorted = append(next, r.sorted[at:]...)
	return nil
}

// MustRegister is Register that panics on error; used for the built-in
// catalog whose descriptors are statically known.
func (r *Registry) MustRegister(d Descriptor) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Get returns the descriptor with the given id.
func (r *Registry) Get(id string) (Descriptor, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.services[id]
	if !ok {
		return Descriptor{}, fmt.Errorf("%w: %q", ErrUnknownService, id)
	}
	return d, nil
}

// Len returns the number of registered services.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.services)
}

// snapshot returns every descriptor in id order. The slice is shared: do not
// modify it.
func (r *Registry) snapshot() []Descriptor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sorted
}

// All returns every descriptor sorted by id.
func (r *Registry) All() []Descriptor {
	return slices.Clone(r.snapshot())
}

// ByArea returns every descriptor of the given area, sorted by id.
func (r *Registry) ByArea(area model.Area) []Descriptor {
	var out []Descriptor
	for _, d := range r.snapshot() {
		if d.Area == area {
			out = append(out, d)
		}
	}
	return out
}

// CandidatesForTask returns the analytics services implementing the given
// task, sorted by descending quality (ties broken by id).
func (r *Registry) CandidatesForTask(task model.AnalyticsTask) []Descriptor {
	var out []Descriptor
	for _, d := range r.snapshot() {
		if d.Area == model.AreaAnalytics && d.Task == task {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Quality != out[j].Quality {
			return out[i].Quality > out[j].Quality
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByCapability returns services exposing the given capability, sorted by id.
func (r *Registry) ByCapability(capability string) []Descriptor {
	var out []Descriptor
	for _, d := range r.snapshot() {
		if d.Capability == capability {
			out = append(out, d)
		}
	}
	return out
}

// DefaultRegistry returns the built-in catalog: every analytics algorithm of
// the analytics package plus the ingestion, preparation, processing and
// display services the compiler composes around them. Cost, latency and
// quality figures are the calibration constants used by the planner's static
// estimates; measured values come from actually running the pipeline.
func DefaultRegistry() *Registry {
	r := NewRegistry()

	// Representation: data ingestion connectors.
	r.MustRegister(Descriptor{
		ID: "ingest-batch", Name: "Batch ingestion connector", Area: model.AreaRepresentation,
		Capability: "ingest_batch", MaxSensitivity: storage.Sensitive,
		SupportsBatch: true, CostPerKRows: 0.002, MillisPerKRows: 1.5,
	})
	r.MustRegister(Descriptor{
		ID: "ingest-stream", Name: "Streaming ingestion connector", Area: model.AreaRepresentation,
		Capability: "ingest_stream", MaxSensitivity: storage.Sensitive,
		SupportsStreaming: true, CostPerKRows: 0.004, MillisPerKRows: 0.8,
	})

	// Preparation: cleaning, scaling and privacy transformations.
	r.MustRegister(Descriptor{
		ID: "clean-missing", Name: "Missing-value cleaner", Area: model.AreaPreparation,
		Capability: "clean_missing", MaxSensitivity: storage.Sensitive,
		SupportsBatch: true, SupportsStreaming: true, CostPerKRows: 0.001, MillisPerKRows: 1.0,
	})
	r.MustRegister(Descriptor{
		ID: "normalize-features", Name: "Feature normalizer", Area: model.AreaPreparation,
		Capability: "normalize_features", MaxSensitivity: storage.Sensitive,
		SupportsBatch: true, SupportsStreaming: true, CostPerKRows: 0.001, MillisPerKRows: 1.2,
	})
	r.MustRegister(Descriptor{
		ID: "pseudonymize-pii", Name: "PII pseudonymizer", Area: model.AreaPreparation,
		Capability: "pseudonymize", MaxSensitivity: storage.Sensitive, Anonymizes: true,
		SupportsBatch: true, SupportsStreaming: true, CostPerKRows: 0.003, MillisPerKRows: 2.0,
	})
	r.MustRegister(Descriptor{
		ID: "mask-strict", Name: "Strict anonymizer (masking + generalisation)", Area: model.AreaPreparation,
		Capability: "anonymize_strict", MaxSensitivity: storage.Sensitive, Anonymizes: true,
		SupportsBatch: true, CostPerKRows: 0.006, MillisPerKRows: 4.0,
	})

	// Analytics: one service per algorithm in internal/analytics.
	r.MustRegister(Descriptor{
		ID: "classify-logreg", Name: "Logistic regression classifier", Area: model.AreaAnalytics,
		Task: model.TaskClassification, Capability: "classify",
		MaxSensitivity: storage.Internal, SupportsBatch: true,
		CostPerKRows: 0.020, MillisPerKRows: 18, Quality: 0.85,
	})
	r.MustRegister(Descriptor{
		ID: "classify-nbayes", Name: "Gaussian naive Bayes classifier", Area: model.AreaAnalytics,
		Task: model.TaskClassification, Capability: "classify",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		CostPerKRows: 0.012, MillisPerKRows: 8, Quality: 0.78,
	})
	r.MustRegister(Descriptor{
		ID: "classify-stump", Name: "Decision stump classifier", Area: model.AreaAnalytics,
		Task: model.TaskClassification, Capability: "classify",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		CostPerKRows: 0.006, MillisPerKRows: 4, Quality: 0.65,
	})
	r.MustRegister(Descriptor{
		ID: "classify-majority", Name: "Majority-class baseline", Area: model.AreaAnalytics,
		Task: model.TaskClassification, Capability: "classify",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		CostPerKRows: 0.001, MillisPerKRows: 1, Quality: 0.50,
	})
	r.MustRegister(Descriptor{
		ID: "cluster-kmeans", Name: "K-means clustering", Area: model.AreaAnalytics,
		Task: model.TaskClustering, Capability: "cluster",
		MaxSensitivity: storage.Internal, SupportsBatch: true,
		CostPerKRows: 0.015, MillisPerKRows: 12, Quality: 0.75,
	})
	r.MustRegister(Descriptor{
		ID: "associate-apriori", Name: "Apriori association rules", Area: model.AreaAnalytics,
		Task: model.TaskAssociation, Capability: "associate",
		MaxSensitivity: storage.Internal, SupportsBatch: true,
		CostPerKRows: 0.025, MillisPerKRows: 20, Quality: 0.80,
	})
	r.MustRegister(Descriptor{
		ID: "detect-zscore", Name: "Z-score anomaly detector", Area: model.AreaAnalytics,
		Task: model.TaskAnomaly, Capability: "detect_anomaly",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		CostPerKRows: 0.005, MillisPerKRows: 3, Quality: 0.72,
	})
	r.MustRegister(Descriptor{
		ID: "detect-iqr", Name: "IQR anomaly detector", Area: model.AreaAnalytics,
		Task: model.TaskAnomaly, Capability: "detect_anomaly",
		MaxSensitivity: storage.Internal, SupportsBatch: true,
		CostPerKRows: 0.004, MillisPerKRows: 4, Quality: 0.70,
	})
	r.MustRegister(Descriptor{
		ID: "forecast-holtwinters", Name: "Holt-Winters forecaster", Area: model.AreaAnalytics,
		Task: model.TaskForecasting, Capability: "forecast",
		MaxSensitivity: storage.Internal, SupportsBatch: true,
		CostPerKRows: 0.018, MillisPerKRows: 10, Quality: 0.82,
	})
	r.MustRegister(Descriptor{
		ID: "forecast-moving-average", Name: "Moving-average forecaster", Area: model.AreaAnalytics,
		Task: model.TaskForecasting, Capability: "forecast",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		CostPerKRows: 0.004, MillisPerKRows: 2, Quality: 0.60,
	})
	r.MustRegister(Descriptor{
		ID: "sessionize-gap", Name: "Gap-based sessionizer", Area: model.AreaAnalytics,
		Task: model.TaskSessionization, Capability: "sessionize",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		CostPerKRows: 0.008, MillisPerKRows: 6, Quality: 0.80,
	})
	r.MustRegister(Descriptor{
		ID: "report-aggregate", Name: "Group-and-aggregate reporting", Area: model.AreaAnalytics,
		Task: model.TaskReporting, Capability: "report",
		MaxSensitivity: storage.Internal, SupportsBatch: true, SupportsStreaming: true,
		Aggregates:   true,
		CostPerKRows: 0.006, MillisPerKRows: 5, Quality: 0.90,
	})

	// Processing: execution platforms.
	r.MustRegister(Descriptor{
		ID: "process-batch", Name: "Parallel batch processing engine", Area: model.AreaProcessing,
		Capability: "process_batch", MaxSensitivity: storage.Sensitive,
		SupportsBatch: true, CostPerKRows: 0.010, MillisPerKRows: 6,
	})
	r.MustRegister(Descriptor{
		ID: "process-microbatch", Name: "Micro-batch streaming engine", Area: model.AreaProcessing,
		Capability: "process_stream", MaxSensitivity: storage.Sensitive,
		SupportsStreaming: true, CostPerKRows: 0.018, MillisPerKRows: 2,
	})

	// Display: result delivery.
	r.MustRegister(Descriptor{
		ID: "display-dashboard", Name: "Aggregate dashboard", Area: model.AreaDisplay,
		Capability: "display_dashboard", MaxSensitivity: storage.Internal, Aggregates: true,
		SupportsBatch: true, SupportsStreaming: true, CostPerKRows: 0.001, MillisPerKRows: 0.5,
	})
	r.MustRegister(Descriptor{
		ID: "display-export", Name: "Record-level export", Area: model.AreaDisplay,
		Capability: "display_export", MaxSensitivity: storage.Internal,
		SupportsBatch: true, CostPerKRows: 0.002, MillisPerKRows: 1.0,
	})

	return r
}
