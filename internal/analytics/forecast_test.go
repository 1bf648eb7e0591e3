package analytics

import (
	"errors"
	"math"
	"testing"
)

// dailySeries builds a sinusoidal daily pattern with a slight upward trend.
func dailySeries(days int) []float64 {
	var out []float64
	for h := 0; h < days*24; h++ {
		seasonal := math.Sin(float64(h%24) / 24 * 2 * math.Pi)
		trend := float64(h) * 0.001
		out = append(out, 5+2*seasonal+trend)
	}
	return out
}

func TestMovingAverageForecaster(t *testing.T) {
	f := &MovingAverageForecaster{Window: 24}
	series := dailySeries(5)
	if err := f.Fit(series); err != nil {
		t.Fatal(err)
	}
	pred, err := f.Forecast(12)
	if err != nil || len(pred) != 12 {
		t.Fatalf("forecast = %v, %v", pred, err)
	}
	// Flat forecast: every point equals the window mean.
	for _, p := range pred[1:] {
		if p != pred[0] {
			t.Error("moving average forecast must be flat")
			break
		}
	}
	if f.Name() != "moving_average" {
		t.Error("name mismatch")
	}
}

func TestMovingAverageErrors(t *testing.T) {
	f := &MovingAverageForecaster{}
	if _, err := f.Forecast(3); !errors.Is(err, ErrNotFitted) {
		t.Error("forecast before fit must fail")
	}
	if err := f.Fit(nil); !errors.Is(err, ErrNoData) {
		t.Error("empty series must fail")
	}
	if err := f.Fit([]float64{1, 2}); err != nil { // window longer than series
		t.Fatal(err)
	}
	if _, err := f.Forecast(0); !errors.Is(err, ErrBadParameter) {
		t.Error("zero horizon must fail")
	}
}

func TestHoltWintersTracksSeasonality(t *testing.T) {
	series := dailySeries(7)
	horizon := 24
	hw := &HoltWinters{Period: 24}
	ma := &MovingAverageForecaster{Window: 24}

	hwErr, err := BacktestForecaster(hw, series, horizon)
	if err != nil {
		t.Fatal(err)
	}
	maErr, err := BacktestForecaster(ma, series, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if hwErr >= maErr {
		t.Errorf("Holt-Winters RMSE %.3f must beat moving average %.3f on a seasonal series", hwErr, maErr)
	}
	if hw.Name() != "holt_winters" {
		t.Error("name mismatch")
	}
}

func TestHoltWintersErrors(t *testing.T) {
	hw := &HoltWinters{Period: 24}
	if err := hw.Fit(dailySeries(1)); !errors.Is(err, ErrBadParameter) {
		t.Error("series shorter than 2 periods must fail")
	}
	if _, err := hw.Forecast(3); !errors.Is(err, ErrNotFitted) {
		t.Error("forecast before fit must fail")
	}
	if err := hw.Fit(dailySeries(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Forecast(-1); !errors.Is(err, ErrBadParameter) {
		t.Error("negative horizon must fail")
	}
}

func TestRMSEAndMAE(t *testing.T) {
	f := []float64{1, 2, 3}
	a := []float64{1, 2, 5}
	rmse, err := RMSE(f, a)
	if err != nil || math.Abs(rmse-math.Sqrt(4.0/3)) > 1e-9 {
		t.Errorf("rmse = %v, %v", rmse, err)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Error("length mismatch must fail")
	}
	if _, err := RMSE(nil, nil); !errors.Is(err, ErrDimMismatch) {
		t.Error("empty inputs must fail")
	}
}

func TestBacktestForecasterValidation(t *testing.T) {
	if _, err := BacktestForecaster(nil, dailySeries(3), 5); !errors.Is(err, ErrBadParameter) {
		t.Error("nil forecaster must fail")
	}
	if _, err := BacktestForecaster(&MovingAverageForecaster{}, dailySeries(1), 0); !errors.Is(err, ErrBadParameter) {
		t.Error("zero horizon must fail")
	}
	if _, err := BacktestForecaster(&MovingAverageForecaster{}, []float64{1, 2}, 5); !errors.Is(err, ErrBadParameter) {
		t.Error("horizon >= series length must fail")
	}
	if _, err := BacktestForecaster(&HoltWinters{Period: 24}, dailySeries(1), 2); err == nil {
		t.Error("fit errors must propagate")
	}
}

func TestMeanHelper(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean of empty slice must be 0")
	}
	if mean([]float64{2, 4}) != 3 {
		t.Error("mean misbehaves")
	}
}
