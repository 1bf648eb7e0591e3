// Package procedural defines the procedural model of the TOREADOR
// methodology: an executable service composition (a DAG of catalog services)
// produced by compiling a declarative campaign and later bound to a concrete
// deployment.
//
// The composition captures which service runs in each of the five design
// areas and in which order, independent of where it runs; the deployment
// package binds it to a platform and the runner executes it on the dataflow
// engine.
package procedural

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/model"
)

// Errors reported by composition validation.
var (
	ErrInvalidComposition = errors.New("procedural: invalid composition")
	ErrCycle              = errors.New("procedural: composition contains a cycle")
)

// Step is one node of the composition DAG: a catalog service plus its wiring.
type Step struct {
	// ID uniquely identifies the step inside the composition.
	ID string `json:"id"`
	// Service is the catalog service executed by this step.
	Service catalog.Descriptor `json:"service"`
	// DependsOn lists the step IDs that must complete before this step.
	DependsOn []string `json:"depends_on,omitempty"`
	// Params carries step-specific parameters resolved at compile time
	// (e.g. the label column for a classifier).
	Params map[string]string `json:"params,omitempty"`
}

// Composition is the full procedural model of one campaign.
//
// A composition built by New is validated once, when it is built, and
// carries the facts derived from its steps: the execution order, the service
// ids, the fingerprint and the analytics step. It must not be mutated
// afterwards. A composition built as a literal or decoded from JSON carries
// no facts; every reader derives them afresh from its current steps.
type Composition struct {
	// Campaign is the name of the declarative campaign this was compiled from.
	Campaign string `json:"campaign"`
	// Steps are the composition nodes. Order is not significant; use
	// TopologicalOrder for execution order.
	Steps []Step `json:"steps"`

	// facts is set by New; nil for literal and decoded compositions.
	facts *facts
}

// facts are what every reader of a composition derives from its steps.
type facts struct {
	// order holds indices into Steps in execution order; nil when err is set.
	order []int
	// err is why there is no execution order (an unknown dependency, a cycle
	// or a duplicate step id).
	err error
	// ids are the steps' service ids in execution order, or in declaration
	// order when there is none.
	ids []string
	// fingerprint joins ids with " -> ".
	fingerprint string
	// analytics indexes the analytics step with the smallest ID; -1 when
	// there is none.
	analytics int
}

// New builds a composition from its steps, validates it (see Validate) and
// derives its facts once. The composition must not be mutated afterwards:
// its readers trust the stored facts, and Validate reports it valid without
// checking again.
func New(campaign string, steps []Step) (*Composition, error) {
	c := &Composition{Campaign: campaign, Steps: steps}
	order, err := c.validate()
	if err != nil {
		return nil, err
	}
	f := c.factsFor(order, nil)
	c.facts = &f
	return c, nil
}

// derive returns the composition's facts: the stored ones for a composition
// built by New, freshly computed (and not stored) for any other.
func (c *Composition) derive() facts {
	if c.facts != nil {
		return *c.facts
	}
	order, err := c.order()
	return c.factsFor(order, err)
}

// factsFor derives the facts of c given its execution order (or the reason
// it has none).
func (c *Composition) factsFor(order []int, err error) facts {
	f := facts{order: order, err: err, ids: make([]string, len(c.Steps)), analytics: -1}
	if err != nil {
		for i := range c.Steps {
			f.ids[i] = c.Steps[i].Service.ID
		}
	} else {
		for i, k := range order {
			f.ids[i] = c.Steps[k].Service.ID
		}
	}
	f.fingerprint = strings.Join(f.ids, " -> ")
	for i := range c.Steps {
		s := &c.Steps[i]
		if s.Service.Area == model.AreaAnalytics && (f.analytics < 0 || s.ID < c.Steps[f.analytics].ID) {
			f.analytics = i
		}
	}
	return f
}

// indexOf returns the index of the first step with the given ID, or -1.
// A composition has one step per design-area slot, so a scan beats a map.
func (c *Composition) indexOf(id string) int {
	for i := range c.Steps {
		if c.Steps[i].ID == id {
			return i
		}
	}
	return -1
}

// Validate checks structural well-formedness: non-empty, unique step IDs,
// resolvable dependencies, acyclicity, and area monotonicity (a step may only
// depend on steps whose area is the same or earlier in the pipeline order).
// A composition built by New was validated when it was built and is not
// checked again.
func (c *Composition) Validate() error {
	if c != nil && c.facts != nil {
		return nil
	}
	_, err := c.validate()
	return err
}

// validate runs Validate's checks and returns the execution order.
func (c *Composition) validate() ([]int, error) {
	if c == nil || len(c.Steps) == 0 {
		return nil, fmt.Errorf("%w: no steps", ErrInvalidComposition)
	}
	for i := range c.Steps {
		s := &c.Steps[i]
		if strings.TrimSpace(s.ID) == "" {
			return nil, fmt.Errorf("%w: step with empty id", ErrInvalidComposition)
		}
		if c.indexOf(s.ID) < i {
			return nil, fmt.Errorf("%w: duplicate step id %q", ErrInvalidComposition, s.ID)
		}
		if err := s.Service.Validate(); err != nil {
			return nil, fmt.Errorf("%w: step %q: %v", ErrInvalidComposition, s.ID, err)
		}
	}
	for i := range c.Steps {
		s := &c.Steps[i]
		for _, dep := range s.DependsOn {
			p := c.indexOf(dep)
			if p < 0 {
				return nil, fmt.Errorf("%w: step %q depends on unknown step %q", ErrInvalidComposition, s.ID, dep)
			}
			parent := &c.Steps[p]
			if parent.Service.Area.Order() > s.Service.Area.Order() {
				return nil, fmt.Errorf("%w: step %q (%s) depends on later-area step %q (%s)",
					ErrInvalidComposition, s.ID, s.Service.Area, dep, parent.Service.Area)
			}
		}
	}
	return c.order()
}

// order computes the execution order as indices into Steps: Kahn's
// algorithm, always taking the ready step that comes first by area order and
// then by ID. An unknown dependency is ErrInvalidComposition; a cycle or a
// duplicate step ID is ErrCycle.
func (c *Composition) order() ([]int, error) {
	n := len(c.Steps)
	for i := range c.Steps {
		for _, dep := range c.Steps[i].DependsOn {
			if c.indexOf(dep) < 0 {
				return nil, fmt.Errorf("%w: unknown dependency %q", ErrInvalidComposition, dep)
			}
		}
	}
	for i := range c.Steps {
		if c.indexOf(c.Steps[i].ID) < i {
			return nil, ErrCycle
		}
	}
	// pending[i] counts the unfinished dependencies of step i; -1 marks a
	// step already placed.
	scratch := make([]int, 3*n)
	pending, area, order := scratch[:n], scratch[n:2*n], scratch[2*n:2*n:3*n]
	for i := range c.Steps {
		pending[i] = len(c.Steps[i].DependsOn)
		area[i] = c.Steps[i].Service.Area.Order()
	}
	for len(order) < n {
		next := -1
		for i := range c.Steps {
			if pending[i] != 0 {
				continue
			}
			if next < 0 || area[i] < area[next] || area[i] == area[next] && c.Steps[i].ID < c.Steps[next].ID {
				next = i
			}
		}
		if next < 0 {
			return nil, ErrCycle
		}
		pending[next] = -1
		order = append(order, next)
		id := c.Steps[next].ID
		for i := range c.Steps {
			for _, dep := range c.Steps[i].DependsOn {
				if dep == id {
					pending[i]--
				}
			}
		}
	}
	return order, nil
}

// Order returns the indices into Steps in execution order (see
// TopologicalOrder). For a composition built by New the slice is the stored
// one: callers must not modify it.
func (c *Composition) Order() ([]int, error) {
	f := c.derive()
	return f.order, f.err
}

// TopologicalOrder returns the steps in a valid execution order (dependencies
// first). The order is deterministic: ties are broken by area order and then
// by step ID.
func (c *Composition) TopologicalOrder() ([]Step, error) {
	order, err := c.Order()
	if err != nil {
		return nil, err
	}
	out := make([]Step, len(order))
	for i, k := range order {
		out[i] = c.Steps[k]
	}
	return out, nil
}

// StepsByArea returns the steps belonging to the given area, in ID order.
func (c *Composition) StepsByArea(area model.Area) []Step {
	var out []Step
	for _, s := range c.Steps {
		if s.Service.Area == area {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Step returns the step with the given ID.
func (c *Composition) Step(id string) (Step, bool) {
	for _, s := range c.Steps {
		if s.ID == id {
			return s, true
		}
	}
	return Step{}, false
}

// AnalyticsStep returns the (first, in ID order) analytics-area step, which
// drives the runner's task dispatch.
func (c *Composition) AnalyticsStep() (Step, bool) {
	f := c.derive()
	if f.analytics < 0 {
		return Step{}, false
	}
	return c.Steps[f.analytics], true
}

// HasCapability reports whether any step's service exposes the capability.
func (c *Composition) HasCapability(capability string) bool {
	for _, s := range c.Steps {
		if s.Service.Capability == capability {
			return true
		}
	}
	return false
}

// HasAnonymization reports whether the composition contains an anonymising
// preparation step.
func (c *Composition) HasAnonymization() bool {
	for _, s := range c.Steps {
		if s.Service.Anonymizes {
			return true
		}
	}
	return false
}

// ServiceIDs returns the catalog IDs of every step in topological order
// (declaration order for a composition without one); useful as a compact
// fingerprint of an alternative.
func (c *Composition) ServiceIDs() []string {
	return slices.Clone(c.derive().ids)
}

// Fingerprint returns a stable textual identity of the composition based on
// the chosen services.
func (c *Composition) Fingerprint() string {
	return c.derive().fingerprint
}

// EstimateCost sums the static per-service cost estimates for the given input
// size.
func (c *Composition) EstimateCost(rows int) float64 {
	total := 0.0
	for _, s := range c.Steps {
		total += s.Service.EstimateCost(rows)
	}
	return total
}

// EstimateLatencyMillis returns the critical-path latency estimate for the
// given input size and degree of parallelism: the longest dependency chain
// where each step contributes its per-service latency estimate. It is one
// pass over the execution order; a composition without one is walked in
// declaration order, counting only the dependencies declared before a step.
func (c *Composition) EstimateLatencyMillis(rows, parallelism int) float64 {
	f := c.derive()
	order := f.order
	if f.err != nil {
		order = make([]int, len(c.Steps))
		for i := range order {
			order[i] = i
		}
	}
	var buf [8]float64 // the chain ending at each step; compositions are short
	chain := buf[:]
	if len(c.Steps) > len(buf) {
		chain = make([]float64, len(c.Steps))
	}
	longest := 0.0
	for _, k := range order {
		s := &c.Steps[k]
		upstream := 0.0
		for _, dep := range s.DependsOn {
			if p := c.indexOf(dep); p >= 0 && chain[p] > upstream {
				upstream = chain[p]
			}
		}
		chain[k] = upstream + s.Service.EstimateLatencyMillis(rows, parallelism)
		if chain[k] > longest {
			longest = chain[k]
		}
	}
	return longest
}

// EstimateQuality returns the expected analytics quality of the composition:
// the quality of its analytics step (0 when there is none).
func (c *Composition) EstimateQuality() float64 {
	f := c.derive()
	if f.analytics < 0 {
		return 0
	}
	return c.Steps[f.analytics].Service.Quality
}

// SupportsStreaming reports whether every step can run in a streaming
// deployment.
func (c *Composition) SupportsStreaming() bool {
	for _, s := range c.Steps {
		if !s.Service.SupportsStreaming {
			return false
		}
	}
	return len(c.Steps) > 0
}

// SupportsBatch reports whether every step can run in a batch deployment.
func (c *Composition) SupportsBatch() bool {
	for _, s := range c.Steps {
		if !s.Service.SupportsBatch {
			return false
		}
	}
	return len(c.Steps) > 0
}

// String renders the composition as a compact arrow-chain of service IDs.
func (c *Composition) String() string {
	return fmt.Sprintf("%s: %s", c.Campaign, c.Fingerprint())
}
