package analytics

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// threeBlobs generates three well-separated Gaussian blobs.
func threeBlobs(perBlob int, seed int64) (Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := Matrix{{0, 0}, {10, 10}, {-10, 10}}
	var x Matrix
	var truth []int
	for c, center := range centers {
		for i := 0; i < perBlob; i++ {
			x = append(x, []float64{
				center[0] + rng.NormFloat64(),
				center[1] + rng.NormFloat64(),
			})
			truth = append(truth, c)
		}
	}
	return x, truth
}

func TestKMeansRecoverseparatedBlobs(t *testing.T) {
	x, truth := threeBlobs(60, 5)
	km := &KMeans{K: 3, Seed: 1}
	if err := km.Fit(x); err != nil {
		t.Fatal(err)
	}
	// Every ground-truth blob must map (almost) entirely to a single cluster.
	for blob := 0; blob < 3; blob++ {
		counts := map[int]int{}
		total := 0
		for i, tr := range truth {
			if tr == blob {
				counts[km.nearest(x[i])]++
				total++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		if float64(best)/float64(total) < 0.95 {
			t.Errorf("blob %d split across clusters: %v", blob, counts)
		}
	}
	inertia, err := km.Inertia(x)
	if err != nil {
		t.Fatal(err)
	}
	// With correct clustering the within-cluster variance is tiny compared to
	// a single-cluster solution.
	single := &KMeans{K: 1, Seed: 1}
	if err := single.Fit(x); err != nil {
		t.Fatal(err)
	}
	singleInertia, _ := single.Inertia(x)
	if inertia >= singleInertia/5 {
		t.Errorf("k=3 inertia %.1f not much better than k=1 inertia %.1f", inertia, singleInertia)
	}
	if len(km.Centroids()) != 3 {
		t.Error("centroids must have K entries")
	}
	if passes, converged := km.Iterations(); passes < 2 || !converged {
		t.Errorf("separated blobs: %d passes, converged=%v; want a converged fit", passes, converged)
	}
	capped := &KMeans{K: 3, Seed: 1, MaxIterations: 1}
	if err := capped.Fit(x); err != nil {
		t.Fatal(err)
	}
	if passes, converged := capped.Iterations(); passes != 1 || converged {
		t.Errorf("MaxIterations=1: %d passes, converged=%v; want 1 unconverged pass", passes, converged)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	x, _ := threeBlobs(30, 7)
	a := &KMeans{K: 3, Seed: 42}
	b := &KMeans{K: 3, Seed: 42}
	if err := a.Fit(x); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x); err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Centroids(), b.Centroids()
	for i := range ca {
		for j := range ca[i] {
			if ca[i][j] != cb[i][j] {
				t.Fatal("same seed must give identical centroids")
			}
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	km := &KMeans{K: 0}
	if err := km.Fit(Matrix{{1}}); !errors.Is(err, ErrBadParameter) {
		t.Error("K=0 must fail")
	}
	km = &KMeans{K: 5}
	if err := km.Fit(Matrix{{1}, {2}}); !errors.Is(err, ErrBadParameter) {
		t.Error("K > rows must fail")
	}
	if err := (&KMeans{K: 1}).Fit(Matrix{}); !errors.Is(err, ErrNoData) {
		t.Error("empty matrix must fail")
	}
	unfitted := &KMeans{K: 2}
	if _, err := unfitted.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Error("predict before fit must fail")
	}
	if _, err := unfitted.Inertia(Matrix{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Error("inertia before fit must fail")
	}
	if unfitted.Centroids() != nil {
		t.Error("centroids before fit must be nil")
	}
	fitted := &KMeans{K: 1, Seed: 1}
	if err := fitted.Fit(Matrix{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fitted.Predict([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("wrong width prediction must fail")
	}
}

// naiveInitCentroids is the pre-cache O(K²·N) seeding: every round recomputes
// each point's distance to every chosen centroid from scratch. The cached
// implementation in initCentroids must reproduce it bit for bit.
func naiveInitCentroids(x Matrix, k int, seed int64) Matrix {
	rng := rand.New(rand.NewSource(seed))
	rows, _ := x.Dims()
	centroids := make(Matrix, 0, k)
	first := rng.Intn(rows)
	centroids = append(centroids, append([]float64(nil), x[first]...))
	for len(centroids) < k {
		bestIdx, bestDist := 0, -1.0
		for i, row := range x {
			minDist := euclidean(row, centroids[0])
			for _, c := range centroids[1:] {
				if d := euclidean(row, c); d < minDist {
					minDist = d
				}
			}
			if minDist > bestDist {
				bestDist = minDist
				bestIdx = i
			}
		}
		centroids = append(centroids, append([]float64(nil), x[bestIdx]...))
	}
	return centroids
}

func TestKMeansSeedingDeterministic(t *testing.T) {
	x, _ := threeBlobs(40, 11)
	for _, seed := range []int64{0, 1, 42, 1234} {
		for _, k := range []int{1, 2, 3, 5} {
			km := &KMeans{K: k, Seed: seed}
			rng := rand.New(rand.NewSource(seed))
			got := km.initCentroids(x, rng)
			want := naiveInitCentroids(x, k, seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d k=%d: cached seeding diverged\n got %v\nwant %v", seed, k, got, want)
			}
			// A second run from the same seed must pin identical centroids.
			again := km.initCentroids(x, rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("seed=%d k=%d: seeding not deterministic", seed, k)
			}
		}
	}
}

// TestKMeansEmptyClusterKeepsPreviousCentroid pins the empty-cluster rule: a
// cluster that loses every point keeps the centroid it had before the pass
// (its last non-empty mean, not its seed), and never turns into a 0/0 NaN.
func TestKMeansEmptyClusterKeepsPreviousCentroid(t *testing.T) {
	x := Matrix{{0}, {2}, {10}, {12}}
	km := &KMeans{K: 3, centroids: Matrix{{1}, {11}, {6}}}
	km.recomputeCentroids(x, []int{0, 0, 1, 1})
	if want := (Matrix{{1}, {11}, {6}}); !reflect.DeepEqual(km.centroids, want) {
		t.Fatalf("centroids after a pass that empties cluster 2 = %v, want %v", km.centroids, want)
	}

	// Through Fit: duplicate points tie to the lowest cluster index, so with
	// three clusters over two distinct values one cluster is empty from the
	// first pass on, whichever point the seed picks first.
	dup := Matrix{{0}, {0}, {0}, {10}}
	for _, seed := range []int64{0, 1, 2, 3, 4} {
		fit := &KMeans{K: 3, Seed: seed}
		if err := fit.Fit(dup); err != nil {
			t.Fatal(err)
		}
		used := map[int]bool{}
		for _, row := range dup {
			used[fit.nearest(row)] = true
		}
		if len(used) != 2 {
			t.Fatalf("seed=%d: used clusters %v, want exactly one empty cluster", seed, used)
		}
		for k, c := range fit.Centroids() {
			if math.IsNaN(c[0]) {
				t.Fatalf("seed=%d: cluster %d centroid is NaN", seed, k)
			}
			if !used[k] && c[0] != 0 {
				t.Errorf("seed=%d: empty cluster %d centroid = %v, want its seed {0}", seed, k, c)
			}
		}
	}
}
