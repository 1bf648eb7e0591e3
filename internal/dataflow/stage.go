package dataflow

// stage.go implements the stage compiler: before execution the engine walks
// the logical plan and fuses maximal chains of narrow, per-partition
// operators (filter, project, withColumn and mapStrings) into a single fused
// stage. A fused stage runs as ONE cluster job with one task per input
// partition; inside each task the operators run as a chain of batch kernels
// over the partition's column batch (see vector.go), passing selection
// vectors and shared columns between them, so no intermediate per-operator
// partition is ever materialised. Wide operators (group-by, join, sort)
// remain stage boundaries.

import (
	"fmt"
	"slices"
	"strings"
)

// fusedChain is one maximal chain of narrow operators compiled into a single
// stage.
type fusedChain struct {
	// ops are the narrow plan nodes in execution order (closest to the input
	// first): filter, project, withColumn and mapStrings nodes.
	ops []planNode
	// base is the node feeding the chain: a source or a wide operator.
	base planNode
}

// narrowChainOf walks down from node and collects the maximal fusible chain
// ending at node. ok is false when node starts no fusible chain (it is a
// source or a wide operator).
func narrowChainOf(node planNode) (fusedChain, bool) {
	var ch fusedChain
	cur := node
	for {
		switch cur.(type) {
		case *filterNode, *projectNode, *withColumnNode, *mapStringsNode:
			ch.ops = append(ch.ops, cur)
			cur = cur.children()[0]
		default:
			ch.base = cur
			// Collected top-down; reverse into execution order.
			slices.Reverse(ch.ops)
			return ch, len(ch.ops) > 0
		}
	}
}

// opKind names one fused operator for job/task naming.
func opKind(op planNode) string {
	switch op.(type) {
	case *filterNode:
		return "filter"
	case *projectNode:
		return "project"
	case *withColumnNode:
		return "with_column"
	case *mapStringsNode:
		return "map_strings"
	default:
		return "op"
	}
}

// name renders the stage's job name, e.g. "stage(filter→with_column)".
func (ch fusedChain) name() string {
	kinds := make([]string, len(ch.ops))
	for i, op := range ch.ops {
		kinds[i] = opKind(op)
	}
	return "stage(" + strings.Join(kinds, "→") + ")"
}

// Explain renders the physical plan the engine would execute for d: fused
// stages, shuffle boundaries, and the physical strategy chosen for every wide
// operator (range vs single-task sort, broadcast vs shuffled join, map-side
// combine, and the in-memory or spilling core of sorts and aggregations). It
// is the physical counterpart of Dataset.Explain (the logical plan) and
// executes nothing.
func (e *Engine) Explain(d *Dataset) string {
	if d == nil || d.node == nil {
		return "<invalid plan>"
	}
	if err := d.Err(); err != nil {
		return fmt.Sprintf("<invalid plan: %v>", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "PhysicalPlan(combine=%s, broadcastJoin(≤%d), shufflePartitions=%d, memoryBudget=%s)\n",
		onOff(e.combine), e.broadcastThreshold, e.shufflePartitions, e.budgetLabel())
	fmt.Fprintf(&sb, "  spill: %s\n", e.spillMode())
	e.explainNode(&sb, d.node, 1)
	return sb.String()
}

// sortCoreLabel names the sort core the engine will run a Sort node with, the
// physical counterpart of the range/single-task partitioning decision.
// bound/bounded is the static input-size estimate, used to put an upper bound
// on the external merge's run count (runs are fixed SortChunkRows-row chunks,
// so the count is derivable before execution).
func (e *Engine) sortCoreLabel(bound int, bounded bool) string {
	switch {
	case e.memoryBudget <= 0:
		return "[columnar in-memory]"
	case bounded:
		runs := (bound + SortChunkRows - 1) / SortChunkRows
		if runs < 1 {
			runs = 1
		}
		return fmt.Sprintf("[external merge (runs≤%d)]", runs)
	default:
		return "[external merge (chunked runs)]"
	}
}

// aggCoreLabel names the aggregation core group-by nodes run with: the
// columnar hash aggregation, spill-aware when a budget forces the
// non-combined path's group state to re-partition. The combined path's
// group state is bounded by the map-side partials, so only the non-combined
// path gets the spilling tag.
func (e *Engine) aggCoreLabel() string {
	if e.memoryBudget > 0 && !e.combine {
		return fmt.Sprintf("[spilling hash-agg (parts≤%d)]", aggSpillPartitions)
	}
	return "[columnar hash-agg]"
}

// budgetLabel renders the memory budget for the Explain header.
func (e *Engine) budgetLabel() string {
	if e.memoryBudget <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%dB", e.memoryBudget)
}

// spillMode names the spill state of wide-operator accumulations.
func (e *Engine) spillMode() string {
	if e.memoryBudget <= 0 {
		return "disabled (unlimited budget, partitions stay in memory)"
	}
	return fmt.Sprintf("enabled (budget %d bytes per accumulation, cold batches spill to temp files)", e.memoryBudget)
}

// estimateMaxRows returns a static upper bound on the number of rows node can
// produce, derived from source sizes: narrow operators, sorts and group-bys
// are bounded by their child. ok is false when no bound can be derived (a
// join can grow its input arbitrarily).
// Explain uses the bound to predict the runtime broadcast-join decision,
// which compares the materialised build side against the threshold.
func estimateMaxRows(node planNode) (int, bool) {
	switch n := node.(type) {
	case *sourceNode:
		return n.rows, true
	case *joinNode:
		return 0, false
	default:
		// A group-by emits at most one row per input row; every other
		// operator at most its input.
		return estimateMaxRows(node.children()[0])
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func (e *Engine) explainNode(sb *strings.Builder, node planNode, depth int) {
	indent := strings.Repeat("  ", depth)
	if ch, ok := narrowChainOf(node); ok {
		labels := make([]string, len(ch.ops))
		for i, op := range ch.ops {
			labels[i] = op.label()
		}
		// The job name ties the line to the cluster job that runs it.
		sb.WriteString(indent + fmt.Sprintf("FusedStage(ops=%d: %s) as %s\n",
			len(ch.ops), strings.Join(labels, " → "), ch.name()))
		e.explainNode(sb, ch.base, depth+1)
		return
	}
	label := node.label()
	switch n := node.(type) {
	case *groupByNode:
		if e.combine {
			label += " [combine+shuffle]"
		} else {
			label += " [shuffle]"
		}
		label += " " + e.aggCoreLabel()
	case *sortNode:
		// Mirror evalSort's runtime decision: small bounded inputs take the
		// single-task fallback; unbounded inputs are assumed large enough to
		// range-shuffle. The second tag names the sort core (in memory, or an
		// external merge with its run bound).
		bound, bounded := estimateMaxRows(n.child)
		small := bounded && bound <= e.shufflePartitions*minRowsPerSortPartition
		if e.shufflePartitions > 1 && !small {
			label += fmt.Sprintf(" [range-shuffle(parts=%d)]", e.shufflePartitions)
		} else {
			label += " [single-task]"
		}
		label += " " + e.sortCoreLabel(bound, bounded)
	case *joinNode:
		if bound, ok := estimateMaxRows(n.right); ok && bound <= e.broadcastThreshold {
			label += fmt.Sprintf(" [broadcast(build≤%d)]", bound)
		} else {
			label += " [shuffle-hash]"
		}
	}
	sb.WriteString(indent + label + "\n")
	for _, c := range node.children() {
		e.explainNode(sb, c, depth+1)
	}
}
