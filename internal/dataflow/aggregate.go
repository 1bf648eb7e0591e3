package dataflow

import (
	"fmt"

	"repro/internal/storage"
)

// AggKind enumerates the supported aggregation functions. Over a group's
// rows in input order:
//
//   - count: the number of rows — every other kind counts only the non-null
//     cells of its column;
//   - sum: the AsFloat sum of the non-null cells (0 when there are none);
//   - avg: sum / count, null when count is 0.
//
// Every kind is algebraic: counts and sums add, so merging the partial
// states of a group's rows split across tasks yields the state one pass
// would have. Any other AggKind value is rejected as ErrBadPlan.
type AggKind int

const (
	// AggCount counts rows in the group.
	AggCount AggKind = iota
	// AggSum sums a numeric column.
	AggSum
	// AggAvg averages a numeric column.
	AggAvg
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// Aggregation describes one aggregate computed per group.
type Aggregation struct {
	// Kind selects the aggregation function.
	Kind AggKind
	// Column is the input column; ignored for AggCount.
	Column string
	// As optionally overrides the output column name.
	As string
}

// Convenience constructors.

// Count counts rows per group.
func Count() Aggregation { return Aggregation{Kind: AggCount, As: "count"} }

// Sum sums col per group.
func Sum(col string) Aggregation { return Aggregation{Kind: AggSum, Column: col} }

// Avg averages col per group.
func Avg(col string) Aggregation { return Aggregation{Kind: AggAvg, Column: col} }

// Named renames the output column.
func (a Aggregation) Named(name string) Aggregation {
	a.As = name
	return a
}

// OutputName returns the name of the produced column.
func (a Aggregation) OutputName() string {
	if a.As != "" {
		return a.As
	}
	if a.Kind == AggCount {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.Kind, a.Column)
}

func (a Aggregation) validate(in *storage.Schema) error {
	if a.Kind == AggCount {
		return nil
	}
	if a.Kind != AggSum && a.Kind != AggAvg {
		return fmt.Errorf("%w: unknown aggregation %s", ErrBadPlan, a.Kind)
	}
	if a.Column == "" {
		return fmt.Errorf("%w: aggregation %s requires a column", ErrBadPlan, a.Kind)
	}
	if !in.Has(a.Column) {
		return fmt.Errorf("%w: aggregation column %q", storage.ErrUnknownField, a.Column)
	}
	return nil
}

func (a Aggregation) outputType() storage.FieldType {
	if a.Kind == AggCount {
		return storage.TypeInt
	}
	return storage.TypeFloat
}
