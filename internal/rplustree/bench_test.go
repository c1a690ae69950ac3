package rplustree

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkBulkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, 10000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bulk(newPool(1024), items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchHalfPlane(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr, err := Bulk(newPool(1024), randItems(rng, 10000, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := float64(i%80) - 40
		if _, err := tr.SearchHalfPlane(0.5, 1, c, i%2 == 0, func(uint32, Rect) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDuplicationBound shows the clipping trade-off: low
// bounds chain early (scan-like but compact), high bounds partition deeply
// (prunable but duplicated).
func BenchmarkAblationDuplicationBound(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 5000, 12)
	for _, bound := range []float64{1.05, 1.5, 2.5} {
		b.Run(fmt.Sprintf("bound=%g", bound), func(b *testing.B) {
			tr, err := bulk(newPool(1024), items, bound)
			if err != nil {
				b.Fatal(err)
			}
			var visited int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := tr.SearchHalfPlane(0.3, 1, -35, false, func(uint32, Rect) {})
				if err != nil {
					b.Fatal(err)
				}
				visited = v
			}
			b.ReportMetric(float64(visited), "nodes/query")
			b.ReportMetric(float64(tr.Pages()), "pages")
			b.ReportMetric(float64(tr.Size()), "refs")
		})
	}
}
