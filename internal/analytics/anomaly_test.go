package analytics

import (
	"errors"
	"math"
	"testing"
)

func seriesWithSpikes() ([]float64, []bool) {
	var values []float64
	var labels []bool
	for i := 0; i < 200; i++ {
		v := 10 + math.Sin(float64(i)/10)
		anomaly := i == 50 || i == 120 || i == 180
		if anomaly {
			v += 25
		}
		values = append(values, v)
		labels = append(labels, anomaly)
	}
	return values, labels
}

func TestZScoreDetector(t *testing.T) {
	values, labels := seriesWithSpikes()
	d := &ZScoreDetector{Threshold: 3}
	flagged, cm, err := DetectAnomalies(d, values, labels)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Recall() < 0.99 {
		t.Errorf("recall = %v, want all injected spikes found", cm.Recall())
	}
	if cm.Precision() < 0.5 {
		t.Errorf("precision = %v, too many false positives", cm.Precision())
	}
	if len(flagged) < 3 {
		t.Errorf("flagged = %d, want at least the 3 spikes", len(flagged))
	}
	if d.Name() != "zscore_detector" {
		t.Error("name mismatch")
	}
	score, err := d.Score(values[50])
	if err != nil || score <= 3 {
		t.Errorf("spike score = %v, %v", score, err)
	}
}

func TestZScoreDetectorErrors(t *testing.T) {
	d := &ZScoreDetector{}
	if _, err := d.IsAnomaly(1); !errors.Is(err, ErrNotFitted) {
		t.Error("unfitted detector must fail")
	}
	if err := d.Fit(nil); !errors.Is(err, ErrNoData) {
		t.Error("empty fit must fail")
	}
	// Constant series must not divide by zero.
	if err := d.Fit([]float64{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if anomalous, err := d.IsAnomaly(5); err != nil || anomalous {
		t.Errorf("constant value flagged: %v, %v", anomalous, err)
	}
}

func TestIQRDetector(t *testing.T) {
	values, labels := seriesWithSpikes()
	d := &IQRDetector{}
	flagged, cm, err := DetectAnomalies(d, values, labels)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Recall() < 0.99 {
		t.Errorf("recall = %v, want all spikes found", cm.Recall())
	}
	if len(flagged) == 0 {
		t.Error("no anomalies flagged")
	}
	if d.lower >= d.upper {
		t.Errorf("bounds = %v..%v", d.lower, d.upper)
	}
	if d.Name() != "iqr_detector" {
		t.Error("name mismatch")
	}
}

func TestIQRDetectorErrors(t *testing.T) {
	d := &IQRDetector{}
	if _, err := d.IsAnomaly(1); !errors.Is(err, ErrNotFitted) {
		t.Error("unfitted detector must fail")
	}
	if err := d.Fit(nil); !errors.Is(err, ErrNoData) {
		t.Error("empty fit must fail")
	}
}

func TestDetectAnomaliesValidation(t *testing.T) {
	if _, _, err := DetectAnomalies(nil, []float64{1}, nil); !errors.Is(err, ErrBadParameter) {
		t.Error("nil detector must fail")
	}
	if _, _, err := DetectAnomalies(&ZScoreDetector{}, []float64{1, 2}, []bool{true}); !errors.Is(err, ErrDimMismatch) {
		t.Error("mismatched labels must fail")
	}
	// nil labels are allowed: confusion matrix stays empty.
	_, cm, err := DetectAnomalies(&ZScoreDetector{}, []float64{1, 2, 3, 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 0 {
		t.Error("confusion matrix must stay empty without labels")
	}
}

func TestQuantileSorted(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if q := quantileSorted(sorted, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantileSorted(sorted, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := quantileSorted(sorted, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := quantileSorted(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	// Interpolation between ranks.
	if q := quantileSorted([]float64{0, 10}, 0.25); math.Abs(q-2.5) > 1e-9 {
		t.Errorf("interpolated quantile = %v, want 2.5", q)
	}
}
