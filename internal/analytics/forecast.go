package analytics

import (
	"fmt"
	"math"
)

// Forecaster produces point forecasts for a univariate series.
type Forecaster interface {
	// Fit learns from the historical series.
	Fit(series []float64) error
	// Forecast returns the next h point forecasts.
	Forecast(h int) ([]float64, error)
	// Name identifies the forecaster in catalog listings.
	Name() string
}

// MovingAverageForecaster forecasts the mean of the last Window observations.
type MovingAverageForecaster struct {
	// Window size (default 24, one day of hourly readings).
	Window int

	level  float64
	fitted bool
}

// Name implements Forecaster.
func (f *MovingAverageForecaster) Name() string { return "moving_average" }

// Fit implements Forecaster.
func (f *MovingAverageForecaster) Fit(series []float64) error {
	if len(series) == 0 {
		return ErrNoData
	}
	if f.Window <= 0 {
		f.Window = 24
	}
	w := f.Window
	if w > len(series) {
		w = len(series)
	}
	sum := 0.0
	for _, v := range series[len(series)-w:] {
		sum += v
	}
	f.level = sum / float64(w)
	f.fitted = true
	return nil
}

// Forecast implements Forecaster: a flat forecast at the last window mean.
func (f *MovingAverageForecaster) Forecast(h int) ([]float64, error) {
	if !f.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadParameter, h)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = f.level
	}
	return out, nil
}

// HoltWinters implements additive triple exponential smoothing with a fixed
// seasonal period, suitable for the smart-meter series (period 24 hours).
type HoltWinters struct {
	// Alpha, Beta, Gamma are the level, trend and seasonal smoothing factors
	// in (0,1); defaults 0.3, 0.05, 0.2.
	Alpha, Beta, Gamma float64
	// Period is the seasonal cycle length (default 24).
	Period int

	level    float64
	trend    float64
	seasonal []float64
	fitted   bool
}

// Name implements Forecaster.
func (f *HoltWinters) Name() string { return "holt_winters" }

func (f *HoltWinters) defaults() {
	if f.Alpha <= 0 || f.Alpha >= 1 {
		f.Alpha = 0.3
	}
	if f.Beta <= 0 || f.Beta >= 1 {
		f.Beta = 0.05
	}
	if f.Gamma <= 0 || f.Gamma >= 1 {
		f.Gamma = 0.2
	}
	if f.Period <= 0 {
		f.Period = 24
	}
}

// Fit implements Forecaster. The series must contain at least two full
// seasonal periods.
func (f *HoltWinters) Fit(series []float64) error {
	f.defaults()
	if len(series) < 2*f.Period {
		return fmt.Errorf("%w: need at least %d observations, got %d", ErrBadParameter, 2*f.Period, len(series))
	}
	p := f.Period
	// Initial level: mean of the first period. Initial trend: average
	// per-step change between the first two periods. Initial seasonal
	// components: deviations from the first-period mean.
	firstMean := mean(series[:p])
	secondMean := mean(series[p : 2*p])
	f.level = firstMean
	f.trend = (secondMean - firstMean) / float64(p)
	f.seasonal = make([]float64, p)
	for i := 0; i < p; i++ {
		f.seasonal[i] = series[i] - firstMean
	}
	for t := p; t < len(series); t++ {
		season := f.seasonal[t%p]
		prevLevel := f.level
		f.level = f.Alpha*(series[t]-season) + (1-f.Alpha)*(f.level+f.trend)
		f.trend = f.Beta*(f.level-prevLevel) + (1-f.Beta)*f.trend
		f.seasonal[t%p] = f.Gamma*(series[t]-f.level) + (1-f.Gamma)*season
	}
	f.fitted = true
	return nil
}

// Forecast implements Forecaster.
func (f *HoltWinters) Forecast(h int) ([]float64, error) {
	if !f.fitted {
		return nil, ErrNotFitted
	}
	if h <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadParameter, h)
	}
	out := make([]float64, h)
	for i := 1; i <= h; i++ {
		out[i-1] = f.level + float64(i)*f.trend + f.seasonal[(len(f.seasonal)+i-1)%f.Period]
	}
	return out, nil
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// RMSE returns the root mean squared error between forecasts and actuals.
func RMSE(forecast, actual []float64) (float64, error) {
	if len(forecast) == 0 || len(forecast) != len(actual) {
		return 0, fmt.Errorf("%w: forecast %d vs actual %d", ErrDimMismatch, len(forecast), len(actual))
	}
	sum := 0.0
	for i := range forecast {
		d := forecast[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(forecast))), nil
}

// BacktestForecaster evaluates a forecaster by holding out the last horizon
// points of the series, fitting on the rest, and returning the RMSE on the
// held-out suffix.
func BacktestForecaster(f Forecaster, series []float64, horizon int) (float64, error) {
	if f == nil {
		return 0, fmt.Errorf("%w: nil forecaster", ErrBadParameter)
	}
	if horizon <= 0 || horizon >= len(series) {
		return 0, fmt.Errorf("%w: horizon %d for series of %d", ErrBadParameter, horizon, len(series))
	}
	train := series[:len(series)-horizon]
	actual := series[len(series)-horizon:]
	if err := f.Fit(train); err != nil {
		return 0, fmt.Errorf("analytics: backtest fit %s: %w", f.Name(), err)
	}
	pred, err := f.Forecast(horizon)
	if err != nil {
		return 0, fmt.Errorf("analytics: backtest forecast %s: %w", f.Name(), err)
	}
	return RMSE(pred, actual)
}
