package analytics

import (
	"fmt"
	"math"
)

// Classifier is the common interface of the supervised models in the catalog.
type Classifier interface {
	// Fit trains the model on features x and boolean labels y.
	Fit(x Matrix, y []bool) error
	// Predict returns the predicted label for one feature vector.
	Predict(row []float64) (bool, error)
	// Name identifies the model in catalog listings and reports.
	Name() string
}

// checkTrainingInput validates the (x, y) pair shared by every classifier.
func checkTrainingInput(x Matrix, y []bool) error {
	if err := x.Validate(); err != nil {
		return err
	}
	if len(y) != len(x) {
		return fmt.Errorf("%w: %d rows, %d labels", ErrDimMismatch, len(x), len(y))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

// LogisticRegression is a binary classifier trained with mini-batch free,
// full-gradient descent plus L2 regularisation.
type LogisticRegression struct {
	// LearningRate of the gradient steps (default 0.1).
	LearningRate float64
	// Epochs of training (default 200).
	Epochs int
	// L2 regularisation strength (default 0.001).
	L2 float64
	// Threshold above which the positive class is predicted (default 0.5).
	Threshold float64

	weights []float64
	bias    float64
	scaler  *Scaler
}

// Name implements Classifier.
func (m *LogisticRegression) Name() string { return "logistic_regression" }

func (m *LogisticRegression) defaults() {
	if m.LearningRate <= 0 {
		m.LearningRate = 0.1
	}
	if m.Epochs <= 0 {
		m.Epochs = 200
	}
	if m.L2 < 0 {
		m.L2 = 0
	} else if m.L2 == 0 {
		m.L2 = 0.001
	}
	if m.Threshold <= 0 || m.Threshold >= 1 {
		m.Threshold = 0.5
	}
}

// Fit implements Classifier.
func (m *LogisticRegression) Fit(x Matrix, y []bool) error {
	if err := checkTrainingInput(x, y); err != nil {
		return err
	}
	m.defaults()
	scaler, err := FitScaler(x)
	if err != nil {
		return err
	}
	m.scaler = scaler
	xs, err := scaler.Transform(x)
	if err != nil {
		return err
	}
	_, cols := xs.Dims()
	m.weights = make([]float64, cols)
	m.bias = 0
	n := float64(len(xs))
	for epoch := 0; epoch < m.Epochs; epoch++ {
		gradW := make([]float64, cols)
		gradB := 0.0
		for i, row := range xs {
			p := sigmoid(dot(m.weights, row) + m.bias)
			target := 0.0
			if y[i] {
				target = 1
			}
			diff := p - target
			for j, v := range row {
				gradW[j] += diff * v
			}
			gradB += diff
		}
		for j := range m.weights {
			m.weights[j] -= m.LearningRate * (gradW[j]/n + m.L2*m.weights[j])
		}
		m.bias -= m.LearningRate * gradB / n
	}
	return nil
}

// PredictProba returns the estimated probability of the positive class.
func (m *LogisticRegression) PredictProba(row []float64) (float64, error) {
	if m.weights == nil || m.scaler == nil {
		return 0, ErrNotFitted
	}
	if len(row) != len(m.weights) {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrDimMismatch, len(row), len(m.weights))
	}
	sr, err := m.scaler.TransformRow(row)
	if err != nil {
		return 0, err
	}
	return sigmoid(dot(m.weights, sr) + m.bias), nil
}

// Predict implements Classifier.
func (m *LogisticRegression) Predict(row []float64) (bool, error) {
	p, err := m.PredictProba(row)
	if err != nil {
		return false, err
	}
	return p >= m.Threshold, nil
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ---------------------------------------------------------------------------
// Gaussian naive Bayes
// ---------------------------------------------------------------------------

// NaiveBayes is a Gaussian naive Bayes binary classifier.
type NaiveBayes struct {
	priorPos, priorNeg float64
	meanPos, meanNeg   []float64
	varPos, varNeg     []float64
	fitted             bool
}

// Name implements Classifier.
func (m *NaiveBayes) Name() string { return "naive_bayes" }

// Fit implements Classifier.
func (m *NaiveBayes) Fit(x Matrix, y []bool) error {
	if err := checkTrainingInput(x, y); err != nil {
		return err
	}
	_, cols := x.Dims()
	m.meanPos = make([]float64, cols)
	m.meanNeg = make([]float64, cols)
	m.varPos = make([]float64, cols)
	m.varNeg = make([]float64, cols)
	nPos, nNeg := 0.0, 0.0
	for i, row := range x {
		if y[i] {
			nPos++
			for j, v := range row {
				m.meanPos[j] += v
			}
		} else {
			nNeg++
			for j, v := range row {
				m.meanNeg[j] += v
			}
		}
	}
	if nPos == 0 || nNeg == 0 {
		return fmt.Errorf("%w: training data must contain both classes", ErrBadParameter)
	}
	for j := 0; j < cols; j++ {
		m.meanPos[j] /= nPos
		m.meanNeg[j] /= nNeg
	}
	for i, row := range x {
		for j, v := range row {
			if y[i] {
				d := v - m.meanPos[j]
				m.varPos[j] += d * d
			} else {
				d := v - m.meanNeg[j]
				m.varNeg[j] += d * d
			}
		}
	}
	const varianceFloor = 1e-6
	for j := 0; j < cols; j++ {
		m.varPos[j] = math.Max(m.varPos[j]/nPos, varianceFloor)
		m.varNeg[j] = math.Max(m.varNeg[j]/nNeg, varianceFloor)
	}
	m.priorPos = nPos / (nPos + nNeg)
	m.priorNeg = nNeg / (nPos + nNeg)
	m.fitted = true
	return nil
}

// Predict implements Classifier.
func (m *NaiveBayes) Predict(row []float64) (bool, error) {
	if !m.fitted {
		return false, ErrNotFitted
	}
	if len(row) != len(m.meanPos) {
		return false, fmt.Errorf("%w: got %d features, want %d", ErrDimMismatch, len(row), len(m.meanPos))
	}
	logPos := math.Log(m.priorPos)
	logNeg := math.Log(m.priorNeg)
	for j, v := range row {
		logPos += gaussianLogPDF(v, m.meanPos[j], m.varPos[j])
		logNeg += gaussianLogPDF(v, m.meanNeg[j], m.varNeg[j])
	}
	return logPos >= logNeg, nil
}

func gaussianLogPDF(x, mean, variance float64) float64 {
	return -0.5*math.Log(2*math.Pi*variance) - (x-mean)*(x-mean)/(2*variance)
}

// ---------------------------------------------------------------------------
// Decision stump (one-level decision tree)
// ---------------------------------------------------------------------------

// DecisionStump is a single-split decision tree: cheap, interpretable and the
// weakest learner in the catalog. It exists to give the planner a genuinely
// lower-quality/lower-cost alternative to compare against.
type DecisionStump struct {
	feature   int
	threshold float64
	// leftPositive is the prediction when value < threshold.
	leftPositive bool
	fitted       bool
}

// Name implements Classifier.
func (m *DecisionStump) Name() string { return "decision_stump" }

// Fit implements Classifier. It scans every feature and a set of candidate
// thresholds, choosing the split with the lowest misclassification error.
func (m *DecisionStump) Fit(x Matrix, y []bool) error {
	if err := checkTrainingInput(x, y); err != nil {
		return err
	}
	rows, cols := x.Dims()
	bestErr := math.Inf(1)
	for j := 0; j < cols; j++ {
		// Candidate thresholds: feature quantiles at 10% steps.
		values := make([]float64, rows)
		for i := range x {
			values[i] = x[i][j]
		}
		for _, thr := range candidateThresholds(values) {
			for _, leftPos := range []bool{true, false} {
				miss := 0
				for i := range x {
					pred := leftPos
					if x[i][j] >= thr {
						pred = !leftPos
					}
					if pred != y[i] {
						miss++
					}
				}
				errRate := float64(miss) / float64(rows)
				if errRate < bestErr {
					bestErr = errRate
					m.feature = j
					m.threshold = thr
					m.leftPositive = leftPos
				}
			}
		}
	}
	m.fitted = true
	return nil
}

func candidateThresholds(values []float64) []float64 {
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV == maxV {
		return []float64{minV}
	}
	const steps = 10
	out := make([]float64, 0, steps)
	for i := 1; i <= steps; i++ {
		out = append(out, minV+(maxV-minV)*float64(i)/float64(steps+1))
	}
	return out
}

// Predict implements Classifier.
func (m *DecisionStump) Predict(row []float64) (bool, error) {
	if !m.fitted {
		return false, ErrNotFitted
	}
	if m.feature >= len(row) {
		return false, fmt.Errorf("%w: stump split on feature %d, row has %d", ErrDimMismatch, m.feature, len(row))
	}
	if row[m.feature] < m.threshold {
		return m.leftPositive, nil
	}
	return !m.leftPositive, nil
}

// ---------------------------------------------------------------------------
// Majority baseline
// ---------------------------------------------------------------------------

// MajorityClassifier always predicts the most frequent training label; it is
// the floor any real model must beat and the "manual shortcut" baseline in the
// Labs scoring.
type MajorityClassifier struct {
	positive bool
	fitted   bool
}

// Name implements Classifier.
func (m *MajorityClassifier) Name() string { return "majority_baseline" }

// Fit implements Classifier.
func (m *MajorityClassifier) Fit(x Matrix, y []bool) error {
	if err := checkTrainingInput(x, y); err != nil {
		return err
	}
	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	m.positive = pos*2 >= len(y)
	m.fitted = true
	return nil
}

// Predict implements Classifier.
func (m *MajorityClassifier) Predict(row []float64) (bool, error) {
	if !m.fitted {
		return false, ErrNotFitted
	}
	return m.positive, nil
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

// ConfusionMatrix summarises binary classification outcomes.
type ConfusionMatrix struct {
	TP, FP, TN, FN int
}

// Add records one (predicted, actual) outcome.
func (c *ConfusionMatrix) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded outcomes.
func (c ConfusionMatrix) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy is (TP+TN)/total, 0 when empty.
func (c ConfusionMatrix) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision is TP/(TP+FP), 0 when undefined.
func (c ConfusionMatrix) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN), 0 when undefined.
func (c ConfusionMatrix) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c ConfusionMatrix) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Evaluate fits the classifier on the training set and scores it on the test
// set, returning the confusion matrix.
func Evaluate(model Classifier, train, test *FeatureSet) (ConfusionMatrix, error) {
	var cm ConfusionMatrix
	if model == nil || train == nil || test == nil {
		return cm, fmt.Errorf("%w: nil model or dataset", ErrBadParameter)
	}
	if err := model.Fit(train.X, train.Labels); err != nil {
		return cm, fmt.Errorf("analytics: fit %s: %w", model.Name(), err)
	}
	if len(test.X) != len(test.Labels) {
		return cm, fmt.Errorf("%w: test set labels", ErrDimMismatch)
	}
	for i, row := range test.X {
		pred, err := model.Predict(row)
		if err != nil {
			return cm, fmt.Errorf("analytics: predict %s: %w", model.Name(), err)
		}
		cm.Add(pred, test.Labels[i])
	}
	return cm, nil
}
