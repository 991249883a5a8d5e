package partition

import (
	"math/rand"
	"testing"
)

// randomInput builds a synthetic partition input of n segments with six
// features each.
func randomInput(n int, seed int64) Input {
	rng := rand.New(rand.NewSource(seed))
	in := Input{Features: make([][]float64, n), Significance: make([]float64, n)}
	for i := 0; i < n; i++ {
		in.Features[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		in.Significance[i] = rng.Float64()
	}
	return in
}

func BenchmarkSimilarity(b *testing.B) {
	in := randomInput(2, 7)
	w := []float64{1, 1, 1, 1, 1, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Similarity(in.Features[0], in.Features[1], w)
	}
}

func BenchmarkOptimal100(b *testing.B) {
	in := randomInput(100, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimal(in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKPartition100x7(b *testing.B) {
	in := randomInput(100, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KPartition(in, 7, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func FuzzSimilarity(f *testing.F) {
	f.Add(1.0, 0.5, 0.0, 0.9, 0.1, 0.7)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		u := []float64{a, b, c}
		v := []float64{d, e, g}
		s := Similarity(u, v, nil)
		if s < 0 || s > 1 || s != s {
			t.Fatalf("Similarity(%v,%v) = %v out of [0,1]", u, v, s)
		}
	})
}
