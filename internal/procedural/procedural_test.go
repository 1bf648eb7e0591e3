package procedural

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/storage"
)

// svc builds a minimal valid descriptor for tests.
func svc(id string, area model.Area, opts ...func(*catalog.Descriptor)) catalog.Descriptor {
	d := catalog.Descriptor{
		ID: id, Name: id, Area: area, Capability: "cap-" + id,
		MaxSensitivity: storage.Internal, SupportsBatch: true,
		CostPerKRows: 0.01, MillisPerKRows: 10,
	}
	if area == model.AreaAnalytics {
		d.Task = model.TaskClassification
		d.Quality = 0.8
	}
	for _, o := range opts {
		o(&d)
	}
	return d
}

// linearComposition builds ingest -> prepare -> analyze -> process -> display.
func linearComposition() *Composition {
	return &Composition{
		Campaign: "test",
		Steps: []Step{
			{ID: "ingest", Service: svc("ingest-batch", model.AreaRepresentation)},
			{ID: "prepare", Service: svc("clean", model.AreaPreparation), DependsOn: []string{"ingest"}},
			{ID: "analyze", Service: svc("classify", model.AreaAnalytics), DependsOn: []string{"prepare"}},
			{ID: "process", Service: svc("batch", model.AreaProcessing), DependsOn: []string{"analyze"}},
			{ID: "display", Service: svc("dash", model.AreaDisplay), DependsOn: []string{"process"}},
		},
	}
}

// validateBoth validates c as a literal and through New, and fails the test
// unless both report the same error.
func validateBoth(t *testing.T, c *Composition) error {
	t.Helper()
	err := c.Validate()
	built, newErr := New(c.Campaign, c.Steps)
	if fmt.Sprint(err) != fmt.Sprint(newErr) || (newErr == nil) != (built != nil) {
		t.Errorf("Validate = %v, New = %v, %v", err, built, newErr)
	}
	return err
}

func TestValidateLinear(t *testing.T) {
	if err := validateBoth(t, linearComposition()); err != nil {
		t.Fatalf("valid composition rejected: %v", err)
	}
}

func TestNewStoresWhatLiteralsDerive(t *testing.T) {
	literal := linearComposition()
	literal.Steps[2], literal.Steps[4] = literal.Steps[4], literal.Steps[2] // declaration order is not execution order
	built, err := New(literal.Campaign, literal.Steps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Composition{literal, built} {
		if got, want := c.Fingerprint(), "ingest-batch -> clean -> classify -> batch -> dash"; got != want {
			t.Errorf("Fingerprint = %q, want %q", got, want)
		}
		order, err := c.Order()
		if err != nil || fmt.Sprint(order) != "[0 1 4 3 2]" {
			t.Errorf("Order = %v, %v", order, err)
		}
		if s, ok := c.AnalyticsStep(); !ok || s.ID != "analyze" {
			t.Errorf("AnalyticsStep = %v, %v", s.ID, ok)
		}
		if got := c.EstimateLatencyMillis(10000, 1); got < 499 || got > 501 {
			t.Errorf("latency = %v, want 500", got)
		}
	}
	// ServiceIDs hands out a copy of the stored list.
	built.ServiceIDs()[0] = "overwritten"
	if built.ServiceIDs()[0] != "ingest-batch" {
		t.Error("ServiceIDs exposes the stored list")
	}
	if built.Validate() != nil {
		t.Error("a composition from New must validate")
	}
}

func TestValidateRejectsBadCompositions(t *testing.T) {
	var nilComp *Composition
	if err := nilComp.Validate(); !errors.Is(err, ErrInvalidComposition) {
		t.Error("nil composition must fail")
	}
	if err := validateBoth(t, &Composition{Campaign: "x"}); !errors.Is(err, ErrInvalidComposition) {
		t.Error("empty composition must fail")
	}

	c := linearComposition()
	c.Steps[1].ID = ""
	if err := validateBoth(t, c); !errors.Is(err, ErrInvalidComposition) {
		t.Error("empty step id must fail")
	}

	c = linearComposition()
	c.Steps[1].ID = "ingest"
	if err := validateBoth(t, c); !errors.Is(err, ErrInvalidComposition) {
		t.Error("duplicate step id must fail")
	}

	c = linearComposition()
	c.Steps[1].DependsOn = []string{"ghost"}
	if err := validateBoth(t, c); !errors.Is(err, ErrInvalidComposition) {
		t.Error("unknown dependency must fail")
	}

	c = linearComposition()
	c.Steps[1].Service = catalog.Descriptor{} // invalid service
	if err := validateBoth(t, c); !errors.Is(err, ErrInvalidComposition) {
		t.Error("invalid service must fail")
	}

	// Area monotonicity: a preparation step must not depend on analytics.
	c = linearComposition()
	c.Steps[1].DependsOn = []string{"analyze"}
	if err := validateBoth(t, c); !errors.Is(err, ErrInvalidComposition) {
		t.Error("area order violation must fail")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	c := &Composition{
		Campaign: "cyclic",
		Steps: []Step{
			{ID: "a", Service: svc("s1", model.AreaPreparation), DependsOn: []string{"b"}},
			{ID: "b", Service: svc("s2", model.AreaPreparation), DependsOn: []string{"a"}},
		},
	}
	if err := c.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle err = %v, want ErrCycle", err)
	}
}

func TestTopologicalOrder(t *testing.T) {
	c := linearComposition()
	order, err := c.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	position := map[string]int{}
	for i, s := range order {
		position[s.ID] = i
	}
	for _, s := range c.Steps {
		for _, dep := range s.DependsOn {
			if position[dep] >= position[s.ID] {
				t.Errorf("dependency %s not before %s", dep, s.ID)
			}
		}
	}
	// Deterministic order: areas ascending.
	if order[0].ID != "ingest" || order[len(order)-1].ID != "display" {
		t.Errorf("order = %v", c.ServiceIDs())
	}
}

func TestTopologicalOrderWithParallelBranches(t *testing.T) {
	c := &Composition{
		Campaign: "diamond",
		Steps: []Step{
			{ID: "src", Service: svc("src", model.AreaRepresentation)},
			{ID: "prep-b", Service: svc("p2", model.AreaPreparation), DependsOn: []string{"src"}},
			{ID: "prep-a", Service: svc("p1", model.AreaPreparation), DependsOn: []string{"src"}},
			{ID: "analyze", Service: svc("an", model.AreaAnalytics), DependsOn: []string{"prep-a", "prep-b"}},
		},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := c.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0].ID != "src" || order[3].ID != "analyze" {
		t.Errorf("order = %v", c.ServiceIDs())
	}
	// Siblings must be ordered deterministically by id.
	if order[1].ID != "prep-a" || order[2].ID != "prep-b" {
		t.Errorf("sibling order = %s, %s", order[1].ID, order[2].ID)
	}
}

func TestLookupsAndCapabilities(t *testing.T) {
	c := linearComposition()
	if s, ok := c.Step("analyze"); !ok || s.Service.Area != model.AreaAnalytics {
		t.Error("Step lookup misbehaves")
	}
	if _, ok := c.Step("ghost"); ok {
		t.Error("unknown step must report !ok")
	}
	if s, ok := c.AnalyticsStep(); !ok || s.ID != "analyze" {
		t.Error("AnalyticsStep misbehaves")
	}
	if got := c.StepsByArea(model.AreaPreparation); len(got) != 1 || got[0].ID != "prepare" {
		t.Errorf("StepsByArea = %v", got)
	}
	if !c.HasCapability("cap-classify") || c.HasCapability("nope") {
		t.Error("HasCapability misbehaves")
	}
	if c.HasAnonymization() {
		t.Error("plain composition has no anonymization")
	}
	c.Steps[1].Service.Anonymizes = true
	if !c.HasAnonymization() {
		t.Error("anonymizing step not detected")
	}

	noAnalytics := &Composition{Campaign: "x", Steps: []Step{{ID: "a", Service: svc("s", model.AreaPreparation)}}}
	if _, ok := noAnalytics.AnalyticsStep(); ok {
		t.Error("composition without analytics step must report !ok")
	}
	if noAnalytics.EstimateQuality() != 0 {
		t.Error("quality without analytics step must be 0")
	}
}

func TestFingerprintAndString(t *testing.T) {
	c := linearComposition()
	fp := c.Fingerprint()
	if !strings.HasPrefix(fp, "ingest-batch -> clean") || !strings.HasSuffix(fp, "dash") {
		t.Errorf("fingerprint = %q", fp)
	}
	if !strings.Contains(c.String(), "test:") {
		t.Errorf("String = %q", c.String())
	}
}

func TestEstimates(t *testing.T) {
	c := linearComposition()
	rows := 10000
	// Cost: 5 services x 0.01 per kRow x 10 kRows = 0.5.
	if got := c.EstimateCost(rows); got < 0.49 || got > 0.51 {
		t.Errorf("cost = %v, want 0.5", got)
	}
	// Latency: linear chain of 5 services x 10ms/kRow x 10kRows = 500ms at
	// parallelism 1, halved at parallelism 2.
	seq := c.EstimateLatencyMillis(rows, 1)
	if seq < 499 || seq > 501 {
		t.Errorf("latency = %v, want 500", seq)
	}
	par := c.EstimateLatencyMillis(rows, 2)
	if par >= seq {
		t.Error("higher parallelism must lower the latency estimate")
	}
	if got := c.EstimateQuality(); got != 0.8 {
		t.Errorf("quality = %v, want 0.8", got)
	}
}

func TestEstimateLatencyUsesCriticalPath(t *testing.T) {
	// Two parallel branches of different lengths: critical path is the longer.
	slow := svc("slow", model.AreaPreparation, func(d *catalog.Descriptor) { d.MillisPerKRows = 100 })
	fast := svc("fast", model.AreaPreparation, func(d *catalog.Descriptor) { d.MillisPerKRows = 1 })
	c := &Composition{
		Campaign: "branches",
		Steps: []Step{
			{ID: "src", Service: svc("src", model.AreaRepresentation, func(d *catalog.Descriptor) { d.MillisPerKRows = 0 })},
			{ID: "slow", Service: slow, DependsOn: []string{"src"}},
			{ID: "fast", Service: fast, DependsOn: []string{"src"}},
			{ID: "sink", Service: svc("sink", model.AreaAnalytics, func(d *catalog.Descriptor) { d.MillisPerKRows = 0 }),
				DependsOn: []string{"slow", "fast"}},
		},
	}
	got := c.EstimateLatencyMillis(1000, 1)
	if got < 99 || got > 101 {
		t.Errorf("critical path latency = %v, want 100", got)
	}
}

func TestSupportsBatchAndStreaming(t *testing.T) {
	c := linearComposition()
	if !c.SupportsBatch() {
		t.Error("all-batch composition must support batch")
	}
	if c.SupportsStreaming() {
		t.Error("batch-only composition must not support streaming")
	}
	for i := range c.Steps {
		c.Steps[i].Service.SupportsStreaming = true
	}
	if !c.SupportsStreaming() {
		t.Error("all-streaming composition must support streaming")
	}
	empty := &Composition{}
	if empty.SupportsBatch() || empty.SupportsStreaming() {
		t.Error("empty composition supports nothing")
	}
}

func TestServiceIDsOnInvalidComposition(t *testing.T) {
	c := &Composition{
		Campaign: "cyclic",
		Steps: []Step{
			{ID: "a", Service: svc("s1", model.AreaPreparation), DependsOn: []string{"b"}},
			{ID: "b", Service: svc("s2", model.AreaPreparation), DependsOn: []string{"a"}},
		},
	}
	// Falls back to declaration order instead of failing.
	if got := c.ServiceIDs(); len(got) != 2 {
		t.Errorf("ServiceIDs on cyclic composition = %v", got)
	}
}

// topologicalOrderNaive is the map-based Kahn's algorithm TopologicalOrder
// used before it was rewritten over step indices, kept verbatim as the
// oracle for the rewrite: it re-sorts the ready list after every pop.
func topologicalOrderNaive(c *Composition) ([]Step, error) {
	index := make(map[string]Step, len(c.Steps))
	indegree := make(map[string]int, len(c.Steps))
	dependents := make(map[string][]string, len(c.Steps))
	for _, s := range c.Steps {
		index[s.ID] = s
		if _, ok := indegree[s.ID]; !ok {
			indegree[s.ID] = 0
		}
	}
	for _, s := range c.Steps {
		for _, dep := range s.DependsOn {
			if _, ok := index[dep]; !ok {
				return nil, fmt.Errorf("%w: unknown dependency %q", ErrInvalidComposition, dep)
			}
			indegree[s.ID]++
			dependents[dep] = append(dependents[dep], s.ID)
		}
	}
	ready := make([]string, 0, len(c.Steps))
	for id, deg := range indegree {
		if deg == 0 {
			ready = append(ready, id)
		}
	}
	less := func(a, b string) bool {
		sa, sb := index[a], index[b]
		if sa.Service.Area.Order() != sb.Service.Area.Order() {
			return sa.Service.Area.Order() < sb.Service.Area.Order()
		}
		return a < b
	}
	sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })

	var order []Step
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, index[id])
		for _, next := range dependents[id] {
			indegree[next]--
			if indegree[next] == 0 {
				ready = append(ready, next)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
	}
	if len(order) != len(c.Steps) {
		return nil, ErrCycle
	}
	return order, nil
}

// stepsFromBytes decodes a fuzz input into a step set. Neighbouring steps
// sometimes share an ID; six areas (the five plus an unknown
// one) give area ties broken by ID; dependencies mostly point at earlier steps
// (DAGs), sometimes at any ID (cycles) and sometimes at "ghost" (unknown).
func stepsFromBytes(data []byte) []Step {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	areas := append(model.Areas(), model.Area("unknown"))
	n := int(next()) % 9
	steps := make([]Step, 0, n)
	area := 0
	for i := 0; i < n; i++ {
		// Areas rise slowly with declaration order, so that New accepts
		// many of the sets and many steps share an area.
		b := next()
		if b/16 == 1 && area < len(model.Areas())-1 {
			area++
		}
		stepArea := areas[area]
		if b/16 == 15 {
			stepArea = areas[len(areas)-1]
		}
		k := (3*i + int(b%4)) % len(ids) // neighbours collide now and then
		if b&8 != 0 {
			k = len(ids) - 1 - k // IDs that sort against declaration order
		}
		id := ids[k]
		s := Step{ID: id, Service: svc("svc-"+id, stepArea)}
		for d := int(next()) % 4; d > 0 && i > 0; d-- {
			pick := next()
			switch {
			case pick%16 == 0:
				s.DependsOn = append(s.DependsOn, "ghost")
			case pick%16 == 1:
				s.DependsOn = append(s.DependsOn, ids[int(pick/16)%len(ids)])
			default:
				s.DependsOn = append(s.DependsOn, steps[int(pick/16)%i].ID)
			}
		}
		steps = append(steps, s)
	}
	return steps
}

// errorClass names which of the composition errors err is.
func errorClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrCycle):
		return "cycle"
	case errors.Is(err, ErrInvalidComposition):
		return "invalid"
	default:
		return "other: " + err.Error()
	}
}

// checkOrderAgainstNaive holds TopologicalOrder, on a literal composition
// and on one built by New, to topologicalOrderNaive: the same steps or the
// same error class.
func checkOrderAgainstNaive(t *testing.T, steps []Step) {
	t.Helper()
	c := &Composition{Campaign: "fuzz", Steps: steps}
	want, wantErr := topologicalOrderNaive(c)
	got, gotErr := c.TopologicalOrder()
	if errorClass(gotErr) != errorClass(wantErr) {
		t.Fatalf("steps %s: error %v, naive %v", describe(steps), gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
		t.Fatalf("steps %s:\n order %v\n naive %v", describe(steps), stepIDs(got), stepIDs(want))
	}
	// New also runs Validate's other checks, so it may reject a step set
	// the order accepts, but never the reverse.
	built, err := New("fuzz", steps)
	if err != nil {
		return
	}
	if wantErr != nil {
		t.Fatalf("steps %s: New accepted what the naive order rejects (%v)", describe(steps), wantErr)
	}
	stored, err := built.TopologicalOrder()
	if err != nil || !reflect.DeepEqual(stored, want) {
		t.Fatalf("steps %s:\n stored order %v (%v)\n naive %v", describe(steps), stepIDs(stored), err, stepIDs(want))
	}
	if fp := strings.Join(stepServiceIDs(want), " -> "); built.Fingerprint() != fp || c.Fingerprint() != fp {
		t.Fatalf("fingerprint %q / %q, want %q", built.Fingerprint(), c.Fingerprint(), fp)
	}
}

// describe renders a step set as id(area)<-deps for failure messages.
func describe(steps []Step) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = fmt.Sprintf("%s(%s)<-%v", s.ID, s.Service.Area, s.DependsOn)
	}
	return strings.Join(parts, " ")
}

func stepIDs(steps []Step) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.ID
	}
	return out
}

func stepServiceIDs(steps []Step) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.Service.ID
	}
	return out
}

// randomStepSets returns n fuzz inputs drawn from a fixed seed.
func randomStepSets(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 48)
		rng.Read(out[i])
	}
	return out
}

func TestTopologicalOrderMatchesNaive(t *testing.T) {
	for _, data := range randomStepSets(5000) {
		checkOrderAgainstNaive(t, stepsFromBytes(data))
	}
	// Hand-picked ties: siblings in one area, and steps of different areas
	// whose IDs sort against their area order.
	checkOrderAgainstNaive(t, []Step{
		{ID: "src", Service: svc("src", model.AreaRepresentation)},
		{ID: "z", Service: svc("p1", model.AreaPreparation), DependsOn: []string{"src"}},
		{ID: "m", Service: svc("p2", model.AreaPreparation), DependsOn: []string{"src"}},
		{ID: "a", Service: svc("an", model.AreaAnalytics), DependsOn: []string{"src"}},
	})
	checkOrderAgainstNaive(t, nil)
}

func FuzzTopologicalOrder(f *testing.F) {
	f.Add([]byte{})
	for _, data := range randomStepSets(64) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOrderAgainstNaive(t, stepsFromBytes(data))
	})
}
