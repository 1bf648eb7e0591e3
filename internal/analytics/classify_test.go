package analytics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// syntheticBinary builds a linearly separable-ish dataset: label is true when
// 2*x0 - x1 + noise > 0.
func syntheticBinary(n int, seed int64) (Matrix, []bool) {
	rng := rand.New(rand.NewSource(seed))
	x := make(Matrix, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64() * 2
		b := rng.NormFloat64() * 2
		x[i] = []float64{a, b}
		y[i] = 2*a-b+rng.NormFloat64()*0.3 > 0
	}
	return x, y
}

func accuracyOn(t *testing.T, m Classifier, x Matrix, y []bool) float64 {
	t.Helper()
	var cm ConfusionMatrix
	for i, row := range x {
		pred, err := m.Predict(row)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		cm.Add(pred, y[i])
	}
	return cm.Accuracy()
}

func TestLogisticRegressionLearnsSeparableData(t *testing.T) {
	x, y := syntheticBinary(500, 1)
	m := &LogisticRegression{}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, m, x, y); acc < 0.9 {
		t.Errorf("training accuracy = %.3f, want >= 0.9", acc)
	}
	p, err := m.PredictProba([]float64{3, -3})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 {
		t.Errorf("strongly positive point got probability %v", p)
	}
	if m.Name() != "logistic_regression" {
		t.Error("name mismatch")
	}
}

func TestLogisticRegressionErrors(t *testing.T) {
	m := &LogisticRegression{}
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
		t.Error("predict before fit must fail")
	}
	x, y := syntheticBinary(20, 2)
	if err := m.Fit(x, y[:10]); !errors.Is(err, ErrDimMismatch) {
		t.Error("mismatched labels must fail")
	}
	if err := m.Fit(Matrix{}, nil); !errors.Is(err, ErrNoData) {
		t.Error("empty training set must fail")
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("wrong width prediction must fail")
	}
}

func TestNaiveBayes(t *testing.T) {
	x, y := syntheticBinary(500, 3)
	m := &NaiveBayes{}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, m, x, y); acc < 0.8 {
		t.Errorf("training accuracy = %.3f, want >= 0.8", acc)
	}
	if m.Name() != "naive_bayes" {
		t.Error("name mismatch")
	}
}

func TestNaiveBayesErrors(t *testing.T) {
	m := &NaiveBayes{}
	if _, err := m.Predict([]float64{0, 0}); !errors.Is(err, ErrNotFitted) {
		t.Error("predict before fit must fail")
	}
	// Single-class training data is rejected.
	x := Matrix{{1, 2}, {3, 4}}
	if err := m.Fit(x, []bool{true, true}); !errors.Is(err, ErrBadParameter) {
		t.Errorf("single-class err = %v", err)
	}
	xOK, yOK := syntheticBinary(50, 4)
	if err := m.Fit(xOK, yOK); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("wrong width prediction must fail")
	}
}

func TestDecisionStump(t *testing.T) {
	// Perfectly splittable on feature 0 at threshold ~0.
	x := Matrix{{-2, 5}, {-1, -5}, {-0.5, 2}, {0.5, -2}, {1, 7}, {2, 0}}
	y := []bool{true, true, true, false, false, false}
	m := &DecisionStump{}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, m, x, y); acc < 0.99 {
		t.Errorf("stump accuracy on separable data = %.3f, want 1.0", acc)
	}
	if m.Name() != "decision_stump" {
		t.Error("name mismatch")
	}
	if _, err := (&DecisionStump{}).Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Error("predict before fit must fail")
	}
}

func TestDecisionStumpConstantFeature(t *testing.T) {
	x := Matrix{{1.0}, {1.0}, {1.0}}
	y := []bool{true, true, false}
	m := &DecisionStump{}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1.0}); err != nil {
		t.Fatal(err)
	}
}

func TestMajorityClassifier(t *testing.T) {
	m := &MajorityClassifier{}
	if _, err := m.Predict(nil); !errors.Is(err, ErrNotFitted) {
		t.Error("predict before fit must fail")
	}
	x := Matrix{{1}, {2}, {3}}
	if err := m.Fit(x, []bool{true, true, false}); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict([]float64{99})
	if err != nil || pred != true {
		t.Errorf("majority prediction = %v, %v; want true", pred, err)
	}
	if m.Name() != "majority_baseline" {
		t.Error("name mismatch")
	}
}

func TestConfusionMatrix(t *testing.T) {
	var cm ConfusionMatrix
	cm.Add(true, true)   // TP
	cm.Add(true, false)  // FP
	cm.Add(false, false) // TN
	cm.Add(false, true)  // FN
	cm.Add(true, true)   // TP
	if cm.TP != 2 || cm.FP != 1 || cm.TN != 1 || cm.FN != 1 {
		t.Fatalf("cm = %+v", cm)
	}
	if cm.Total() != 5 {
		t.Errorf("total = %d", cm.Total())
	}
	if math.Abs(cm.Accuracy()-0.6) > 1e-9 {
		t.Errorf("accuracy = %v", cm.Accuracy())
	}
	if math.Abs(cm.Precision()-2.0/3) > 1e-9 {
		t.Errorf("precision = %v", cm.Precision())
	}
	if math.Abs(cm.Recall()-2.0/3) > 1e-9 {
		t.Errorf("recall = %v", cm.Recall())
	}
	if math.Abs(cm.F1()-2.0/3) > 1e-9 {
		t.Errorf("f1 = %v", cm.F1())
	}
	var empty ConfusionMatrix
	if empty.Accuracy() != 0 || empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty matrix metrics must be 0")
	}
}

func TestEvaluateAndModelRanking(t *testing.T) {
	x, y := syntheticBinary(600, 9)
	fs := &FeatureSet{Columns: []string{"a", "b"}, X: x, Labels: y}
	train, test, err := fs.Split(0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	logit, err := Evaluate(&LogisticRegression{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Evaluate(&MajorityClassifier{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if logit.Accuracy() <= baseline.Accuracy() {
		t.Errorf("logistic regression (%.3f) must beat majority baseline (%.3f)",
			logit.Accuracy(), baseline.Accuracy())
	}
	if _, err := Evaluate(nil, train, test); !errors.Is(err, ErrBadParameter) {
		t.Error("nil model must fail")
	}
}
