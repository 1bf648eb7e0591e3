package analytics

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// labelledBatches returns six labelled rows split over two batches.
func labelledBatches() (*storage.Schema, []*storage.ColumnBatch) {
	schema := storage.MustSchema(
		storage.Field{Name: "a", Type: storage.TypeFloat},
		storage.Field{Name: "b", Type: storage.TypeFloat},
		storage.Field{Name: "y", Type: storage.TypeBool},
	)
	rows := []storage.Row{
		{1.0, 2.0, true},
		{2.0, 1.0, false},
		{3.0, 4.0, true},
		{4.0, 3.0, false},
		{5.0, 6.0, true},
		{6.0, 5.0, false},
	}
	var batches []*storage.ColumnBatch
	for _, part := range [][]storage.Row{rows[:4], rows[4:]} {
		b, err := storage.BatchFromRows(schema, part)
		if err != nil {
			panic(err)
		}
		batches = append(batches, b)
	}
	return schema, batches
}

func TestMatrixValidate(t *testing.T) {
	if err := (Matrix{}).Validate(); !errors.Is(err, ErrNoData) {
		t.Errorf("empty matrix err = %v", err)
	}
	if err := (Matrix{{1, 2}, {3}}).Validate(); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ragged matrix err = %v", err)
	}
	if err := (Matrix{{1, 2}, {3, 4}}).Validate(); err != nil {
		t.Errorf("valid matrix err = %v", err)
	}
	r, c := (Matrix{{1, 2, 3}}).Dims()
	if r != 1 || c != 3 {
		t.Errorf("dims = %d,%d", r, c)
	}
}

func TestMatrixClone(t *testing.T) {
	m := Matrix{{1, 2}, {3, 4}}
	c := m.Clone()
	c[0][0] = 99
	if m[0][0] != 1 {
		t.Error("Clone must not alias rows")
	}
}

func TestExtractFeatures(t *testing.T) {
	schema, batches := labelledBatches()
	fs, err := ExtractFeatures(schema, batches, []string{"a", "b"}, "y")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.X) != 6 || len(fs.Labels) != 6 || len(fs.Columns) != 2 {
		t.Fatalf("feature set = %+v", fs)
	}
	if fs.X[0][0] != 1.0 || fs.X[0][1] != 2.0 || fs.Labels[0] != true {
		t.Errorf("first row = %v label=%v", fs.X[0], fs.Labels[0])
	}
	if fs.X[5][0] != 6.0 || fs.X[5][1] != 5.0 || fs.Labels[5] != false {
		t.Errorf("last row (second batch) = %v label=%v", fs.X[5], fs.Labels[5])
	}

	unlabelled, err := ExtractFeatures(schema, batches, []string{"a"}, "")
	if err != nil || unlabelled.Labels != nil {
		t.Errorf("unlabelled extraction = %+v, %v", unlabelled, err)
	}

	if _, err := ExtractFeatures(schema, nil, []string{"a"}, ""); !errors.Is(err, ErrNoData) {
		t.Error("no batches must fail with ErrNoData")
	}
	if _, err := ExtractFeatures(schema, []*storage.ColumnBatch{storage.NewColumnBatch(schema, 0)}, []string{"a"}, ""); !errors.Is(err, ErrNoData) {
		t.Error("empty batches must fail with ErrNoData")
	}
	if _, err := ExtractFeatures(schema, batches, nil, ""); !errors.Is(err, ErrBadParameter) {
		t.Error("no feature columns must fail")
	}
	if _, err := ExtractFeatures(schema, batches, []string{"ghost"}, ""); !errors.Is(err, ErrMissingColumn) {
		t.Error("unknown feature column must fail")
	}
	if _, err := ExtractFeatures(schema, batches, []string{"a"}, "ghost"); !errors.Is(err, ErrMissingColumn) {
		t.Error("unknown label column must fail")
	}
}

// TestExtractFeaturesTypedCells pins the cell conversions: ints, times and
// numeric strings convert, nulls and non-numeric strings read as 0, and a
// null label reads as false.
func TestExtractFeaturesTypedCells(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "n", Type: storage.TypeInt, Nullable: true},
		storage.Field{Name: "at", Type: storage.TypeTime, Nullable: true},
		storage.Field{Name: "s", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "y", Type: storage.TypeBool, Nullable: true},
	)
	b, err := storage.BatchFromRows(schema, []storage.Row{
		{int64(3), int64(1000), "2.5", true},
		{nil, nil, "x", nil},
		{int64(-1), int64(7), nil, false},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ExtractFeatures(schema, []*storage.ColumnBatch{b}, []string{"n", "at", "s"}, "y")
	if err != nil {
		t.Fatal(err)
	}
	wantX := Matrix{{3, 1000, 2.5}, {0, 0, 0}, {-1, 7, 0}}
	wantY := []bool{true, false, false}
	if !reflect.DeepEqual(fs.X, wantX) || !reflect.DeepEqual(fs.Labels, wantY) {
		t.Fatalf("X = %v labels = %v, want %v %v", fs.X, fs.Labels, wantX, wantY)
	}
}

func TestSplit(t *testing.T) {
	schema, batches := labelledBatches()
	fs, _ := ExtractFeatures(schema, batches, []string{"a", "b"}, "y")
	train, test, err := fs.Split(0.33, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.X)+len(test.X) != 6 {
		t.Errorf("split sizes %d + %d != 6", len(train.X), len(test.X))
	}
	if len(test.X) != 1 { // floor(6*0.33) = 1
		t.Errorf("test size = %d, want 1", len(test.X))
	}
	if len(train.Labels) != len(train.X) || len(test.Labels) != len(test.X) {
		t.Error("labels must follow their rows")
	}
	// Determinism.
	train2, test2, _ := fs.Split(0.33, 7)
	if len(train2.X) != len(train.X) || len(test2.X) != len(test.X) {
		t.Error("same seed must give same split sizes")
	}
	if _, _, err := fs.Split(1.0, 1); !errors.Is(err, ErrBadParameter) {
		t.Error("fraction 1.0 must be rejected")
	}
	var nilFS *FeatureSet
	if _, _, err := nilFS.Split(0.5, 1); !errors.Is(err, ErrNoData) {
		t.Error("nil feature set must fail")
	}
}

func TestScaler(t *testing.T) {
	x := Matrix{{1, 10}, {2, 20}, {3, 30}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean[0]-2) > 1e-9 || math.Abs(s.Mean[1]-20) > 1e-9 {
		t.Errorf("means = %v", s.Mean)
	}
	xt, err := s.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	// Transformed columns must have approx zero mean.
	for j := 0; j < 2; j++ {
		sum := 0.0
		for i := range xt {
			sum += xt[i][j]
		}
		if math.Abs(sum) > 1e-9 {
			t.Errorf("column %d mean after scaling = %v", j, sum/3)
		}
	}
	if _, err := s.Transform(Matrix{{1}}); !errors.Is(err, ErrDimMismatch) {
		t.Error("dimension mismatch must fail")
	}
	var nilScaler *Scaler
	if _, err := nilScaler.Transform(x); !errors.Is(err, ErrNotFitted) {
		t.Error("nil scaler must fail")
	}
	if _, err := FitScaler(Matrix{}); err == nil {
		t.Error("empty matrix must fail")
	}
	// Constant columns must not divide by zero.
	cs, err := FitScaler(Matrix{{5}, {5}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	row, err := cs.TransformRow([]float64{5})
	if err != nil || math.IsNaN(row[0]) || math.IsInf(row[0], 0) {
		t.Errorf("constant column transform = %v, %v", row, err)
	}
}

// Property: scaling preserves the number of rows and columns and produces
// finite values for finite inputs.
func TestScalerPropertyShapePreserved(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		var x Matrix
		for i := 0; i+1 < len(raw); i += 2 {
			a, b := raw[i], raw[i+1]
			if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) ||
				math.Abs(a) > 1e9 || math.Abs(b) > 1e9 {
				return true
			}
			x = append(x, []float64{a, b})
		}
		s, err := FitScaler(x)
		if err != nil {
			return false
		}
		xt, err := s.Transform(x)
		if err != nil || len(xt) != len(x) {
			return false
		}
		for _, row := range xt {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
