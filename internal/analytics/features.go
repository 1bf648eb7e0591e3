// Package analytics implements the analytics services registered in the
// TOREADOR service catalog: classification, clustering, association-rule
// mining, anomaly detection, forecasting and sessionization, plus the
// evaluation metrics the Labs use to score trainee campaigns.
//
// Algorithms operate on plain numeric matrices and slices so they can be
// used directly, or fed from the columnar batches a dataflow plan produces
// through the feature-extraction helpers in this file, which read typed
// columns without boxing a row. All stochastic routines take explicit seeds
// for reproducibility.
package analytics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/storage"
)

// Common errors.
var (
	ErrNoData        = errors.New("analytics: no data")
	ErrDimMismatch   = errors.New("analytics: dimension mismatch")
	ErrNotFitted     = errors.New("analytics: model is not fitted")
	ErrBadParameter  = errors.New("analytics: bad parameter")
	ErrMissingColumn = errors.New("analytics: missing column")
)

// Matrix is a dense row-major feature matrix.
type Matrix [][]float64

// Dims returns rows × cols; an empty matrix is 0×0.
func (m Matrix) Dims() (rows, cols int) {
	if len(m) == 0 {
		return 0, 0
	}
	return len(m), len(m[0])
}

// Validate checks that every row has the same width and the matrix is
// non-empty.
func (m Matrix) Validate() error {
	r, c := m.Dims()
	if r == 0 || c == 0 {
		return ErrNoData
	}
	for i, row := range m {
		if len(row) != c {
			return fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimMismatch, i, len(row), c)
		}
	}
	return nil
}

// Clone deep-copies the matrix.
func (m Matrix) Clone() Matrix {
	out := make(Matrix, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// FeatureSet couples a feature matrix with optional boolean labels and the
// source column names, as produced by ExtractFeatures.
type FeatureSet struct {
	Columns []string
	X       Matrix
	Labels  []bool
}

// ExtractFeatures builds a numeric feature matrix from columnar batches over
// schema using the named feature columns; labelColumn may be empty for
// unlabelled data. Cells are read with storage.ColumnBatch.FloatAt and
// BoolAt, so null or non-numeric cells become 0 (false for labels). Every
// row of X is a window of one backing array.
func ExtractFeatures(schema *storage.Schema, batches []*storage.ColumnBatch, featureColumns []string, labelColumn string) (*FeatureSet, error) {
	rows := 0
	for _, b := range batches {
		rows += b.Len()
	}
	if schema == nil || rows == 0 {
		return nil, ErrNoData
	}
	if len(featureColumns) == 0 {
		return nil, fmt.Errorf("%w: no feature columns", ErrBadParameter)
	}
	cols := make([]int, len(featureColumns))
	for i, c := range featureColumns {
		if cols[i] = schema.IndexOf(c); cols[i] < 0 {
			return nil, fmt.Errorf("%w: %q", ErrMissingColumn, c)
		}
	}
	label := -1
	if labelColumn != "" {
		if label = schema.IndexOf(labelColumn); label < 0 {
			return nil, fmt.Errorf("%w: label %q", ErrMissingColumn, labelColumn)
		}
	}
	w := len(cols)
	fs := &FeatureSet{Columns: append([]string(nil), featureColumns...), X: make(Matrix, 0, rows)}
	if label >= 0 {
		fs.Labels = make([]bool, 0, rows)
	}
	backing := make([]float64, rows*w)
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			row := backing[:w:w]
			backing = backing[w:]
			for j, c := range cols {
				row[j], _ = b.FloatAt(i, c)
			}
			fs.X = append(fs.X, row)
			if label >= 0 {
				v, _ := b.BoolAt(i, label)
				fs.Labels = append(fs.Labels, v)
			}
		}
	}
	return fs, nil
}

// Split partitions the feature set into train and test subsets; testFraction
// of the rows (rounded down, at least one when possible) go to the test set.
// The split is deterministic for a given seed.
func (fs *FeatureSet) Split(testFraction float64, seed int64) (train, test *FeatureSet, err error) {
	if fs == nil || len(fs.X) == 0 {
		return nil, nil, ErrNoData
	}
	if testFraction < 0 || testFraction >= 1 {
		return nil, nil, fmt.Errorf("%w: test fraction %v", ErrBadParameter, testFraction)
	}
	n := len(fs.X)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTest := int(float64(n) * testFraction)
	train = &FeatureSet{Columns: fs.Columns}
	test = &FeatureSet{Columns: fs.Columns}
	for i, idx := range perm {
		dst := train
		if i < nTest {
			dst = test
		}
		dst.X = append(dst.X, fs.X[idx])
		if fs.Labels != nil {
			dst.Labels = append(dst.Labels, fs.Labels[idx])
		}
	}
	return train, test, nil
}

// Scaler standardises features to zero mean and unit variance.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-column mean and standard deviation.
func FitScaler(x Matrix) (*Scaler, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	rows, cols := x.Dims()
	s := &Scaler{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(rows)
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(rows))
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// Transform returns a standardised copy of x.
func (s *Scaler) Transform(x Matrix) (Matrix, error) {
	if s == nil {
		return nil, ErrNotFitted
	}
	out := make(Matrix, len(x))
	for i, row := range x {
		if len(row) != len(s.Mean) {
			return nil, fmt.Errorf("%w: row %d", ErrDimMismatch, i)
		}
		nr := make([]float64, len(row))
		for j, v := range row {
			nr[j] = (v - s.Mean[j]) / s.Std[j]
		}
		out[i] = nr
	}
	return out, nil
}

// TransformRow standardises a single feature vector.
func (s *Scaler) TransformRow(row []float64) ([]float64, error) {
	out, err := s.Transform(Matrix{row})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// euclidean returns the Euclidean distance between two equal-length vectors.
func euclidean(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
