package deployment

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/procedural"
)

// composition builds a linear composition from catalog IDs.
func composition(t *testing.T, ids ...string) *procedural.Composition {
	t.Helper()
	reg := catalog.DefaultRegistry()
	c := &procedural.Composition{Campaign: "churn"}
	prev := ""
	for _, id := range ids {
		d, err := reg.Get(id)
		if err != nil {
			t.Fatalf("service %q: %v", id, err)
		}
		step := procedural.Step{ID: id, Service: d}
		if prev != "" {
			step.DependsOn = []string{prev}
		}
		c.Steps = append(c.Steps, step)
		prev = id
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("composition: %v", err)
	}
	return c
}

func batchOnlyComposition(t *testing.T) *procedural.Composition {
	return composition(t, "ingest-batch", "pseudonymize-pii", "classify-logreg", "process-batch", "display-dashboard")
}

func streamableComposition(t *testing.T) *procedural.Composition {
	return composition(t, "ingest-stream", "clean-missing", "detect-zscore", "process-microbatch", "display-dashboard")
}

func TestSupportedPlatforms(t *testing.T) {
	batch, stream := batchOnlyComposition(t), streamableComposition(t)
	for _, tc := range []struct {
		comp     *procedural.Composition
		platform Platform
		want     bool
	}{
		{batch, PlatformBatch, true},
		{batch, PlatformSingleNode, true},
		{batch, PlatformStreaming, false},
		{stream, PlatformBatch, false},
		{stream, PlatformSingleNode, false},
		{stream, PlatformStreaming, true},
	} {
		if got := supports(tc.comp, tc.platform); got != tc.want {
			t.Errorf("supports(%s, %s) = %v, want %v", tc.comp.Fingerprint(), tc.platform, got, tc.want)
		}
	}
}

func TestPlatformValid(t *testing.T) {
	for _, p := range Platforms() {
		if !p.Valid() {
			t.Errorf("platform %s must be valid", p)
		}
	}
	if Platform("mainframe").Valid() {
		t.Error("unknown platform must be invalid")
	}
}

func TestBindBatch(t *testing.T) {
	b := NewBinder()
	comp := batchOnlyComposition(t)
	plan, err := b.Bind(comp, PlatformBatch, 10000, model.Preferences{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Platform != PlatformBatch || plan.Campaign != "churn" {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Parallelism != 4 {
		t.Errorf("default parallelism = %d, want 4", plan.Parallelism)
	}
	if plan.Nodes*plan.SlotsPerNode < plan.Parallelism {
		t.Errorf("cluster %dx%d cannot honour parallelism %d", plan.Nodes, plan.SlotsPerNode, plan.Parallelism)
	}
	if len(plan.Steps) != 5 {
		t.Errorf("bound steps = %d, want 5", len(plan.Steps))
	}
	if plan.Steps[0].ServiceID != "ingest-batch" {
		t.Errorf("first bound step = %v, want ingestion", plan.Steps[0])
	}
	if plan.EstimatedCost <= 0 || plan.EstimatedLatencyMillis <= 0 || plan.EstimatedFreshnessSeconds <= 0 {
		t.Errorf("estimates must be positive: %+v", plan)
	}
	if plan.Region != "eu" {
		t.Errorf("default region = %q, want eu", plan.Region)
	}
}

func TestBindHonoursPreferences(t *testing.T) {
	b := NewBinder()
	comp := batchOnlyComposition(t)
	plan, err := b.Bind(comp, PlatformBatch, 10000, model.Preferences{Parallelism: 16, PreferredRegion: "us"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Parallelism != 16 || plan.Region != "us" {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Nodes*plan.SlotsPerNode < 16 {
		t.Errorf("cluster %dx%d too small for parallelism 16", plan.Nodes, plan.SlotsPerNode)
	}
	// Higher parallelism must not increase the latency estimate.
	small, _ := b.Bind(comp, PlatformBatch, 10000, model.Preferences{Parallelism: 1})
	if plan.EstimatedLatencyMillis > small.EstimatedLatencyMillis {
		t.Error("more parallelism must not slow the estimate down")
	}
}

func TestBindSingleNodeCapsParallelism(t *testing.T) {
	b := NewBinder()
	plan, err := b.Bind(batchOnlyComposition(t), PlatformSingleNode, 1000, model.Preferences{Parallelism: 32})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Nodes != 1 {
		t.Errorf("single node plan has %d nodes", plan.Nodes)
	}
	if plan.Parallelism > plan.SlotsPerNode {
		t.Errorf("parallelism %d exceeds the single node's %d slots", plan.Parallelism, plan.SlotsPerNode)
	}
}

func TestBindErrors(t *testing.T) {
	b := NewBinder()
	comp := batchOnlyComposition(t)
	if _, err := b.Bind(nil, PlatformBatch, 10, model.Preferences{}); !errors.Is(err, ErrBadBinding) {
		t.Error("nil composition must fail")
	}
	if _, err := b.Bind(comp, Platform("alien"), 10, model.Preferences{}); !errors.Is(err, ErrBadBinding) {
		t.Error("unknown platform must fail")
	}
	if _, err := b.Bind(comp, PlatformBatch, -1, model.Preferences{}); !errors.Is(err, ErrBadBinding) {
		t.Error("negative rows must fail")
	}
	if _, err := b.Bind(comp, PlatformStreaming, 10, model.Preferences{}); !errors.Is(err, ErrUnsupportedPlatform) {
		t.Error("binding a batch-only composition to streaming must fail")
	}
	invalid := &procedural.Composition{Campaign: "x"}
	if _, err := b.Bind(invalid, PlatformBatch, 10, model.Preferences{}); !errors.Is(err, ErrBadBinding) {
		t.Error("invalid composition must fail")
	}
}

func TestStreamingFreshnessBeatsBatchAtScale(t *testing.T) {
	// The deployment-crossover claim (Figure 3): for the same streamable
	// composition, the streaming deployment delivers fresher results than the
	// batch-style estimate at large input sizes, while costing more.
	comp := streamableComposition(t)
	// Make a batch-capable clone by checking the same services also support
	// batch; detect-zscore and the others all do except ingest/process: build
	// an equivalent batch pipeline.
	batchComp := composition(t, "ingest-batch", "clean-missing", "detect-zscore", "process-batch", "display-dashboard")
	b := NewBinder()
	rows := 500000

	streamPlan, err := b.Bind(comp, PlatformStreaming, rows, model.Preferences{})
	if err != nil {
		t.Fatal(err)
	}
	batchPlan, err := b.Bind(batchComp, PlatformBatch, rows, model.Preferences{})
	if err != nil {
		t.Fatal(err)
	}
	if streamPlan.EstimatedFreshnessSeconds >= batchPlan.EstimatedFreshnessSeconds {
		t.Errorf("streaming freshness %.2fs must beat batch %.2fs at %d rows",
			streamPlan.EstimatedFreshnessSeconds, batchPlan.EstimatedFreshnessSeconds, rows)
	}
	if streamPlan.EstimatedCost <= batchPlan.EstimatedCost {
		t.Errorf("streaming cost %.4f should exceed batch cost %.4f for the same data",
			streamPlan.EstimatedCost, batchPlan.EstimatedCost)
	}
}

func TestPlanArtifactsAndClusterConfig(t *testing.T) {
	b := NewBinder()
	plan, err := b.Bind(batchOnlyComposition(t), PlatformBatch, 1000, model.Preferences{})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := plan.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan.json", "cluster.json", "submit.json"} {
		if _, ok := arts[name]; !ok {
			t.Errorf("artifact %s missing", name)
		}
	}
	if !strings.Contains(arts["plan.json"], "parallel-batch") {
		t.Error("plan artifact must mention the platform")
	}
	cfg := plan.ClusterConfig(7, 0.01)
	if len(cfg.Nodes) != plan.Nodes || cfg.Seed != 7 {
		t.Errorf("cluster config = %+v", cfg)
	}
	if cfg.Nodes[0].Slots != plan.SlotsPerNode || cfg.Nodes[0].FailureRate != 0.01 {
		t.Errorf("node spec = %+v", cfg.Nodes[0])
	}
}
