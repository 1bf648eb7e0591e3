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
//   - avg: sum / count, null when count is 0;
//   - stddev: the population standard deviation sqrt(sumSq/count − mean²),
//     with the variance clamped at 0, null when count is 0;
//   - min, max: the extreme non-null cell under CompareValues, the first one
//     winning ties, null when there is none;
//   - count_distinct: the number of distinct AsString renderings of the
//     non-null cells.
//
// Every kind is algebraic: counts, sums and sums of squares add, extremes
// compare and distinct sets union, so merging the partial states of a
// group's rows split across tasks yields the state one pass would have.
type AggKind int

const (
	// AggCount counts rows in the group.
	AggCount AggKind = iota
	// AggSum sums a numeric column.
	AggSum
	// AggAvg averages a numeric column.
	AggAvg
	// AggMin takes the minimum of a column.
	AggMin
	// AggMax takes the maximum of a column.
	AggMax
	// AggCountDistinct counts distinct values of a column.
	AggCountDistinct
	// AggStdDev computes the population standard deviation of a column.
	AggStdDev
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
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCountDistinct:
		return "count_distinct"
	case AggStdDev:
		return "stddev"
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

// Min takes the per-group minimum of col.
func Min(col string) Aggregation { return Aggregation{Kind: AggMin, Column: col} }

// Max takes the per-group maximum of col.
func Max(col string) Aggregation { return Aggregation{Kind: AggMax, Column: col} }

// CountDistinct counts distinct values of col per group.
func CountDistinct(col string) Aggregation { return Aggregation{Kind: AggCountDistinct, Column: col} }

// StdDev computes the per-group population standard deviation of col.
func StdDev(col string) Aggregation { return Aggregation{Kind: AggStdDev, Column: col} }

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
	if a.Column == "" {
		return fmt.Errorf("%w: aggregation %s requires a column", ErrBadPlan, a.Kind)
	}
	if !in.Has(a.Column) {
		return fmt.Errorf("%w: aggregation column %q", storage.ErrUnknownField, a.Column)
	}
	return nil
}

func (a Aggregation) outputType(in *storage.Schema) storage.FieldType {
	switch a.Kind {
	case AggCount, AggCountDistinct:
		return storage.TypeInt
	case AggSum, AggAvg, AggStdDev:
		return storage.TypeFloat
	case AggMin, AggMax:
		f, err := in.FieldByName(a.Column)
		if err != nil {
			return storage.TypeFloat
		}
		return f.Type
	default:
		return storage.TypeFloat
	}
}
