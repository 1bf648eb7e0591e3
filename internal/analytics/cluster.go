package analytics

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeans clusters rows into K clusters with Lloyd's algorithm and k-means++
// style seeding (greedy farthest-point initialisation from a seeded RNG).
type KMeans struct {
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIterations bounds Lloyd iterations (default 100).
	MaxIterations int
	// Seed drives centroid initialisation.
	Seed int64

	centroids Matrix
	fitted    bool
	passes    int
	converged bool
}

// Centroids returns the fitted cluster centres.
func (m *KMeans) Centroids() Matrix {
	if !m.fitted {
		return nil
	}
	return m.centroids.Clone()
}

// Iterations reports the Lloyd assignment passes the last Fit ran and whether
// it converged: stopped because a pass changed no assignment, rather than
// because it reached MaxIterations.
func (m *KMeans) Iterations() (passes int, converged bool) {
	return m.passes, m.converged
}

// Fit learns the centroids from x.
func (m *KMeans) Fit(x Matrix) error {
	if err := x.Validate(); err != nil {
		return err
	}
	if m.K < 1 {
		return fmt.Errorf("%w: K=%d", ErrBadParameter, m.K)
	}
	rows, _ := x.Dims()
	if m.K > rows {
		return fmt.Errorf("%w: K=%d exceeds %d rows", ErrBadParameter, m.K, rows)
	}
	if m.MaxIterations <= 0 {
		m.MaxIterations = 100
	}
	rng := rand.New(rand.NewSource(m.Seed))
	m.centroids = m.initCentroids(x, rng)
	assign := make([]int, rows)
	m.passes, m.converged = 0, false
	for m.passes < m.MaxIterations {
		changed := false
		for i, row := range x {
			best := m.nearest(row)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		m.passes++
		if !changed && m.passes > 1 {
			m.converged = true
			break
		}
		m.recomputeCentroids(x, assign)
	}
	m.fitted = true
	return nil
}

func (m *KMeans) initCentroids(x Matrix, rng *rand.Rand) Matrix {
	rows, _ := x.Dims()
	centroids := make(Matrix, 0, m.K)
	first := rng.Intn(rows)
	centroids = append(centroids, append([]float64(nil), x[first]...))
	if m.K == 1 {
		return centroids
	}
	// dists[i] caches the distance from x[i] to its nearest chosen centroid.
	// Each round only folds in the newest centroid, so seeding runs O(K·N)
	// distance evaluations instead of recomputing every pairwise distance per
	// round. The running min folds centroids in the same order the full
	// recomputation scanned them, so the cached values (and the centroids
	// picked from them) are bit-identical to the pre-cache behaviour.
	dists := make([]float64, rows)
	for i, row := range x {
		dists[i] = euclidean(row, centroids[0])
	}
	for len(centroids) < m.K {
		// Pick the point farthest from its nearest chosen centroid — a
		// deterministic variant of k-means++.
		bestIdx, bestDist := 0, -1.0
		for i, d := range dists {
			if d > bestDist {
				bestDist = d
				bestIdx = i
			}
		}
		c := append([]float64(nil), x[bestIdx]...)
		centroids = append(centroids, c)
		if len(centroids) == m.K {
			break
		}
		for i, row := range x {
			if dd := euclidean(row, c); dd < dists[i] {
				dists[i] = dd
			}
		}
	}
	return centroids
}

func (m *KMeans) nearest(row []float64) int {
	best, bestDist := 0, math.Inf(1)
	for k, c := range m.centroids {
		if d := euclidean(row, c); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

func (m *KMeans) recomputeCentroids(x Matrix, assign []int) {
	_, cols := x.Dims()
	sums := make(Matrix, m.K)
	counts := make([]int, m.K)
	for k := range sums {
		sums[k] = make([]float64, cols)
	}
	for i, row := range x {
		k := assign[i]
		counts[k]++
		for j, v := range row {
			sums[k][j] += v
		}
	}
	for k := range sums {
		if counts[k] == 0 {
			continue // keep the previous centroid for empty clusters
		}
		for j := range sums[k] {
			sums[k][j] /= float64(counts[k])
		}
		m.centroids[k] = sums[k]
	}
}

// Predict returns the index of the closest centroid.
func (m *KMeans) Predict(row []float64) (int, error) {
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(row) != len(m.centroids[0]) {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrDimMismatch, len(row), len(m.centroids[0]))
	}
	return m.nearest(row), nil
}

// Inertia returns the total within-cluster sum of squared distances of x.
func (m *KMeans) Inertia(x Matrix) (float64, error) {
	if !m.fitted {
		return 0, ErrNotFitted
	}
	total := 0.0
	for _, row := range x {
		k := m.nearest(row)
		d := euclidean(row, m.centroids[k])
		total += d * d
	}
	return total, nil
}
