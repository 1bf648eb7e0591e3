package analytics

import (
	"fmt"
	"math"
	"sort"
)

// AnomalyDetector scores univariate observations and flags outliers.
type AnomalyDetector interface {
	// Fit learns the reference distribution from values.
	Fit(values []float64) error
	// IsAnomaly reports whether v is an outlier with respect to the fitted
	// distribution.
	IsAnomaly(v float64) (bool, error)
	// Name identifies the detector in catalog listings.
	Name() string
}

// ZScoreDetector flags values whose z-score exceeds Threshold (default 3).
type ZScoreDetector struct {
	// Threshold in standard deviations (default 3).
	Threshold float64

	mean, std float64
	fitted    bool
}

// Name implements AnomalyDetector.
func (d *ZScoreDetector) Name() string { return "zscore_detector" }

// Fit implements AnomalyDetector.
func (d *ZScoreDetector) Fit(values []float64) error {
	if len(values) == 0 {
		return ErrNoData
	}
	if d.Threshold <= 0 {
		d.Threshold = 3
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	d.mean = sum / float64(len(values))
	varSum := 0.0
	for _, v := range values {
		diff := v - d.mean
		varSum += diff * diff
	}
	d.std = math.Sqrt(varSum / float64(len(values)))
	if d.std == 0 {
		d.std = 1e-12
	}
	d.fitted = true
	return nil
}

// Score returns the absolute z-score of v.
func (d *ZScoreDetector) Score(v float64) (float64, error) {
	if !d.fitted {
		return 0, ErrNotFitted
	}
	return math.Abs(v-d.mean) / d.std, nil
}

// IsAnomaly implements AnomalyDetector.
func (d *ZScoreDetector) IsAnomaly(v float64) (bool, error) {
	s, err := d.Score(v)
	if err != nil {
		return false, err
	}
	return s > d.Threshold, nil
}

// IQRDetector flags values outside [Q1 - K*IQR, Q3 + K*IQR] (default K=1.5).
type IQRDetector struct {
	// K is the whisker multiplier (default 1.5).
	K float64

	lower, upper float64
	fitted       bool
}

// Name implements AnomalyDetector.
func (d *IQRDetector) Name() string { return "iqr_detector" }

// Fit implements AnomalyDetector.
func (d *IQRDetector) Fit(values []float64) error {
	if len(values) == 0 {
		return ErrNoData
	}
	if d.K <= 0 {
		d.K = 1.5
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	q1 := quantileSorted(sorted, 0.25)
	q3 := quantileSorted(sorted, 0.75)
	iqr := q3 - q1
	d.lower = q1 - d.K*iqr
	d.upper = q3 + d.K*iqr
	d.fitted = true
	return nil
}

// IsAnomaly implements AnomalyDetector.
func (d *IQRDetector) IsAnomaly(v float64) (bool, error) {
	if !d.fitted {
		return false, ErrNotFitted
	}
	return v < d.lower || v > d.upper, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DetectAnomalies fits the detector on values and returns the indexes flagged
// as anomalous, plus the detection confusion matrix when ground-truth labels
// are provided (labels may be nil).
func DetectAnomalies(d AnomalyDetector, values []float64, labels []bool) ([]int, ConfusionMatrix, error) {
	var cm ConfusionMatrix
	if d == nil {
		return nil, cm, fmt.Errorf("%w: nil detector", ErrBadParameter)
	}
	if labels != nil && len(labels) != len(values) {
		return nil, cm, fmt.Errorf("%w: %d values, %d labels", ErrDimMismatch, len(values), len(labels))
	}
	if err := d.Fit(values); err != nil {
		return nil, cm, err
	}
	var flagged []int
	for i, v := range values {
		anomalous, err := d.IsAnomaly(v)
		if err != nil {
			return nil, cm, err
		}
		if anomalous {
			flagged = append(flagged, i)
		}
		if labels != nil {
			cm.Add(anomalous, labels[i])
		}
	}
	return flagged, cm, nil
}
