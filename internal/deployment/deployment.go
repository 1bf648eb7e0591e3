// Package deployment implements the deployment model of the TOREADOR
// methodology: it binds a procedural service composition to a concrete
// execution platform (parallel batch, micro-batch streaming, or single node),
// sizes the simulated cluster, produces static cost/latency/freshness
// estimates, and renders the deployment descriptors that a real installation
// would hand to its resource manager.
package deployment

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/procedural"
)

// Platform enumerates the execution platforms the binder can target.
type Platform string

// Supported platforms.
const (
	// PlatformBatch is a parallel batch engine (Spark-like).
	PlatformBatch Platform = "parallel-batch"
	// PlatformStreaming is a micro-batch streaming engine (Spark
	// Streaming/Storm-like).
	PlatformStreaming Platform = "micro-batch-streaming"
	// PlatformSingleNode is a single-machine fallback for small campaigns.
	PlatformSingleNode Platform = "single-node"
)

// Platforms returns every platform in a stable order.
func Platforms() []Platform {
	return []Platform{PlatformBatch, PlatformStreaming, PlatformSingleNode}
}

// Valid reports whether p is a known platform.
func (p Platform) Valid() bool {
	for _, known := range Platforms() {
		if p == known {
			return true
		}
	}
	return false
}

// Errors returned by the binder.
var (
	ErrUnsupportedPlatform = errors.New("deployment: composition does not support platform")
	ErrBadBinding          = errors.New("deployment: bad binding request")
)

// BoundStep is one composition step bound to execution resources.
type BoundStep struct {
	StepID      string `json:"step_id"`
	ServiceID   string `json:"service_id"`
	Parallelism int    `json:"parallelism"`
}

// Plan is a complete deployment plan: the "ready-to-be-executed Big Data
// pipeline" of the paper, bound to a platform and sized cluster.
type Plan struct {
	// Campaign is the source campaign name.
	Campaign string `json:"campaign"`
	// Platform the plan targets.
	Platform Platform `json:"platform"`
	// Region the pipeline deploys to.
	Region string `json:"region,omitempty"`
	// Parallelism is the degree of data parallelism of every stage.
	Parallelism int `json:"parallelism"`
	// Nodes and SlotsPerNode describe the allocated cluster.
	Nodes        int `json:"nodes"`
	SlotsPerNode int `json:"slots_per_node"`
	// Steps are the bound composition steps in execution order.
	Steps []BoundStep `json:"steps"`
	// InputRows is the data size the estimates refer to.
	InputRows int `json:"input_rows"`
	// EstimatedCost is the static per-run monetary cost estimate.
	EstimatedCost float64 `json:"estimated_cost"`
	// EstimatedLatencyMillis is the static end-to-end latency estimate.
	EstimatedLatencyMillis float64 `json:"estimated_latency_millis"`
	// EstimatedFreshnessSeconds is the estimated delay between data arrival
	// and result availability.
	EstimatedFreshnessSeconds float64 `json:"estimated_freshness_seconds"`
}

// ClusterConfig returns the simulated-cluster configuration matching the plan.
func (p *Plan) ClusterConfig(seed int64, failureRate float64) cluster.Config {
	cfg := cluster.Uniform(p.Nodes, p.SlotsPerNode, failureRate)
	cfg.Seed = seed
	return cfg
}

// Artifacts renders the deployment descriptors (one JSON document per
// artifact name) that a production TOREADOR installation would submit to its
// resource manager. They exist so examples and the CLI can show users what
// "ready to be executed" means concretely.
func (p *Plan) Artifacts() (map[string]string, error) {
	planDoc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("deployment: render plan: %w", err)
	}
	clusterDoc, err := json.MarshalIndent(p.ClusterConfig(1, 0), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("deployment: render cluster spec: %w", err)
	}
	submit := map[string]any{
		"engine":      string(p.Platform),
		"parallelism": p.Parallelism,
		"stages":      len(p.Steps),
		"region":      p.Region,
	}
	submitDoc, err := json.MarshalIndent(submit, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("deployment: render submit spec: %w", err)
	}
	return map[string]string{
		"plan.json":    string(planDoc),
		"cluster.json": string(clusterDoc),
		"submit.json":  string(submitDoc),
	}, nil
}

// platformProfile captures the static calibration constants per platform.
type platformProfile struct {
	// perStepOverheadMillis models job-scheduling overhead added per step.
	perStepOverheadMillis float64
	// costFactor scales the composition's per-service cost.
	costFactor float64
	// nodes / slots of the default allocation.
	nodes, slots int
	// microBatchSeconds is the streaming micro-batch interval (0 for batch).
	microBatchSeconds float64
}

var profiles = map[Platform]platformProfile{
	PlatformBatch:      {perStepOverheadMillis: 120, costFactor: 1.0, nodes: 4, slots: 2},
	PlatformStreaming:  {perStepOverheadMillis: 25, costFactor: 1.6, nodes: 4, slots: 2, microBatchSeconds: 1},
	PlatformSingleNode: {perStepOverheadMillis: 10, costFactor: 0.6, nodes: 1, slots: 2},
}

// supports reports whether every step of comp runs on the known platform p.
func supports(comp *procedural.Composition, p Platform) bool {
	if p == PlatformStreaming {
		return comp.SupportsStreaming()
	}
	return comp.SupportsBatch()
}

// Binder turns compositions into deployment plans.
type Binder struct {
	// DefaultParallelism is used when the campaign preferences do not request
	// a specific degree of parallelism (default 4).
	DefaultParallelism int
	// DefaultRegion is used when preferences do not pin a region.
	DefaultRegion string
}

// NewBinder returns a binder with sensible defaults.
func NewBinder() *Binder {
	return &Binder{DefaultParallelism: 4, DefaultRegion: "eu"}
}

// Bind produces a deployment plan for the composition on the given platform,
// sized for inputRows records. A composition built by procedural.New was
// validated when it was built; Bind reads its stored execution order.
func (b *Binder) Bind(comp *procedural.Composition, platform Platform, inputRows int, prefs model.Preferences) (*Plan, error) {
	if comp == nil {
		return nil, fmt.Errorf("%w: nil composition", ErrBadBinding)
	}
	if err := comp.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinding, err)
	}
	if !platform.Valid() {
		return nil, fmt.Errorf("%w: unknown platform %q", ErrBadBinding, platform)
	}
	if inputRows < 0 {
		return nil, fmt.Errorf("%w: negative input size", ErrBadBinding)
	}
	if !supports(comp, platform) {
		return nil, fmt.Errorf("%w %q: %s", ErrUnsupportedPlatform, platform, comp.Fingerprint())
	}

	profile := profiles[platform]
	parallelism := prefs.Parallelism
	if parallelism <= 0 {
		parallelism = b.DefaultParallelism
	}
	if platform == PlatformSingleNode {
		parallelism = minInt(parallelism, profile.slots)
	}
	nodes, slots := profile.nodes, profile.slots
	if platform != PlatformSingleNode {
		// Allocate enough slots to honour the requested parallelism.
		for nodes*slots < parallelism {
			nodes++
		}
	}
	region := prefs.PreferredRegion
	if region == "" {
		region = b.DefaultRegion
	}

	order, err := comp.Order()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinding, err)
	}
	steps := make([]BoundStep, len(order))
	for i, k := range order {
		s := &comp.Steps[k]
		steps[i] = BoundStep{StepID: s.ID, ServiceID: s.Service.ID, Parallelism: parallelism}
	}

	latency := comp.EstimateLatencyMillis(inputRows, parallelism) + profile.perStepOverheadMillis*float64(len(order))
	cost := comp.EstimateCost(inputRows) * profile.costFactor
	freshness := latency / 1000
	if platform == PlatformStreaming {
		// A streaming deployment amortises processing over micro-batches, so
		// freshness is the micro-batch interval plus the per-batch latency of
		// a small batch, not the full dataset latency.
		batchRows := maxInt(inputRows/100, 1)
		freshness = profile.microBatchSeconds +
			(comp.EstimateLatencyMillis(batchRows, parallelism)+profile.perStepOverheadMillis*float64(len(order)))/1000
	}

	return &Plan{
		Campaign:                  comp.Campaign,
		Platform:                  platform,
		Region:                    region,
		Parallelism:               parallelism,
		Nodes:                     nodes,
		SlotsPerNode:              slots,
		Steps:                     steps,
		InputRows:                 inputRows,
		EstimatedCost:             cost,
		EstimatedLatencyMillis:    latency,
		EstimatedFreshnessSeconds: freshness,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
