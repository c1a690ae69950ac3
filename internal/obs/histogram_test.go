package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("zero histogram snapshot not empty: %+v", s)
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 1010 {
		t.Fatalf("sum = %d, want 1010", s.Sum)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	// v=0 -> bucket 0, v=1 -> bucket 1, v=2,3 -> bucket 2, v=4 ->
	// bucket 3, v=1000 -> bucket 10: five nonzero buckets.
	if len(s.Buckets) != 5 {
		t.Fatalf("buckets = %+v, want 5 nonzero", s.Buckets)
	}
	var n uint64
	for _, b := range s.Buckets {
		if b.Lo >= b.Hi {
			t.Fatalf("bucket range inverted: %+v", b)
		}
		n += b.Count
	}
	if n != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", n, s.Count)
	}
}

func TestHistogramRecordDurationClampsNegative(t *testing.T) {
	var h Histogram
	h.RecordDuration(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 {
		t.Fatalf("negative duration not clamped: %+v", s)
	}
}

// TestHistogramQuantileAccuracy checks the interpolated estimates
// against a reference sort on random samples from several
// distributions. Log2 buckets guarantee the estimate is within a
// factor of 2 of the true sample quantile; assert with headroom for
// interpolation at bucket edges.
// TestHistogramQuantilesNeverExceedMax pins the clamp on interpolation
// inside the top bucket: a lone 5 sits in [4, 8), and a thousand-valued
// bucket [512, 1024) interpolates p99 past 1000.
func TestHistogramQuantilesNeverExceedMax(t *testing.T) {
	for _, c := range []struct {
		v uint64
		n int
	}{{5, 1}, {1000, 100}} {
		var h Histogram
		for i := 0; i < c.n; i++ {
			h.Record(c.v)
		}
		s := h.Snapshot()
		if s.Max != c.v {
			t.Fatalf("%d×%d: max %d", c.n, c.v, s.Max)
		}
		for _, q := range []float64{s.P50, s.P95, s.P99} {
			if q > float64(s.Max) {
				t.Errorf("%d×%d: quantile %g exceeds max %d (p50 %g p95 %g p99 %g)", c.n, c.v, q, s.Max, s.P50, s.P95, s.P99)
			}
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dists := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(1_000_000)) },
		"exp":       func() uint64 { return uint64(rng.ExpFloat64() * 50_000) },
		"lognormal": func() uint64 { return uint64(math.Exp(rng.NormFloat64()*2 + 8)) },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			samples := make([]uint64, 20_000)
			for i := range samples {
				v := draw()
				samples[i] = v
				h.Record(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			for _, tc := range []struct {
				q   float64
				got float64
			}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
				exact := float64(samples[int(tc.q*float64(len(samples)-1))])
				if exact == 0 {
					continue
				}
				ratio := tc.got / exact
				if ratio < 0.45 || ratio > 2.2 {
					t.Errorf("p%v = %.0f, exact %.0f (ratio %.2f, want within ~2x)",
						tc.q*100, tc.got, exact, ratio)
				}
			}
		})
	}
}

// TestHistogramConcurrentRecordSnapshot drives Record and Snapshot
// from many goroutines; run under -race this is the lock-freedom
// proof, and the final snapshot must account for every observation.
func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perW    = 5000
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count > writers*perW {
					t.Errorf("snapshot count %d exceeds writes", s.Count)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Record(uint64(rng.Intn(1 << 20)))
			}
		}(int64(w))
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perW)
	}
}
