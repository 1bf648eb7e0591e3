package dataflow

import (
	"fmt"
	"math"

	"repro/internal/storage"
)

// AggKind enumerates the supported aggregation functions.
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

// aggState is one aggregation's partial state for one group, the currency of
// the combined group-by's shuffle and merge. The aggregate formulas, over the
// group's rows in input order:
//
//   - count: the number of rows (count) — every other kind counts only the
//     non-null cells of its column;
//   - sum: the AsFloat sum of the non-null cells (0 when there are none);
//   - avg: sum / count, null when count is 0;
//   - stddev: the population standard deviation sqrt(sumSq/count − mean²),
//     with the variance clamped at 0, null when count is 0;
//   - min, max: the extreme non-null cell under CompareValues, the first one
//     winning ties, null when there is none;
//   - count_distinct: the number of distinct AsString renderings of the
//     non-null cells.
type aggState struct {
	spec     Aggregation
	count    int64
	sum      float64
	sumSq    float64
	min      storage.Value
	max      storage.Value
	distinct map[string]struct{}
}

// merge folds another partial state of the same aggregation into st. It is
// the combine step of map-side aggregation: every supported aggregation is
// algebraic (count/sum/sumSq add, min/max compare, distinct sets union), so
// merging partials yields exactly the state a single-pass aggregation over
// the concatenated input would have produced.
func (st *aggState) merge(other *aggState) {
	st.count += other.count
	st.sum += other.sum
	st.sumSq += other.sumSq
	if other.min != nil && (st.min == nil || storage.CompareValues(other.min, st.min) < 0) {
		st.min = other.min
	}
	if other.max != nil && (st.max == nil || storage.CompareValues(other.max, st.max) > 0) {
		st.max = other.max
	}
	if len(other.distinct) > 0 {
		if st.distinct == nil {
			st.distinct = make(map[string]struct{}, len(other.distinct))
		}
		for k := range other.distinct {
			st.distinct[k] = struct{}{}
		}
	}
}

func (st *aggState) result() storage.Value {
	switch st.spec.Kind {
	case AggCount:
		return st.count
	case AggSum:
		return st.sum
	case AggAvg:
		if st.count == 0 {
			return nil
		}
		return st.sum / float64(st.count)
	case AggStdDev:
		if st.count == 0 {
			return nil
		}
		mean := st.sum / float64(st.count)
		variance := st.sumSq/float64(st.count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		return math.Sqrt(variance)
	case AggMin:
		return st.min
	case AggMax:
		return st.max
	case AggCountDistinct:
		return int64(len(st.distinct))
	default:
		return nil
	}
}
