package obs

import (
	"math/bits"
	"time"
)

// numBuckets covers every uint64: bucket i counts values v with
// bits.Len64(v) == i, i.e. bucket 0 holds v=0 and bucket i (i>=1)
// holds the half-open range [2^(i-1), 2^i).
const numBuckets = 65

// Histogram is a lock-free log2-bucketed histogram. Record is a pair
// of atomic adds (plus a CAS loop for the max); Snapshot walks the 65
// buckets and interpolates quantiles. Exponential buckets trade
// resolution for a fixed footprint: any quantile estimate is within a
// factor of 2 of the true sample quantile, which is the right
// granularity for latency distributions spanning cache hits (ns) to
// cold disk sweeps (ms). The zero value is ready to use.
type Histogram struct {
	sum     Counter
	max     Counter // updated via CAS in Record
	buckets [numBuckets]Counter
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration records a latency in nanoseconds; negative durations
// clamp to zero.
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Bucket is one nonzero histogram bucket: Count observations fell in
// the half-open value range [Lo, Hi).
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time read of a histogram. Under
// concurrent Record calls the fields are each individually correct but
// not a single consistent cut; Count is derived from the bucket reads
// so the quantiles always agree with it.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot reads the histogram and computes mean and interpolated
// p50/p95/p99, each at most Max.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [numBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: h.sum.Load(), Max: h.max.Load()}
	if total == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(total)
	// Interpolating inside the top bucket can land past the largest
	// sample; no quantile exceeds Max.
	m := float64(s.Max)
	s.P50 = min(quantile(&counts, total, 0.50), m)
	s.P95 = min(quantile(&counts, total, 0.95), m)
	s.P99 = min(quantile(&counts, total, 0.99), m)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: bucketLo(i), Hi: bucketHi(i), Count: c})
		}
	}
	return s
}

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1 << (i - 1)
}

// bucketHi returns the exclusive upper bound of bucket i.
func bucketHi(i int) uint64 {
	if i == 0 {
		return 1
	}
	if i >= 64 {
		return 1<<64 - 1
	}
	return 1 << i
}

// quantile estimates the q-quantile (q in [0,1]) by locating the
// bucket containing rank q*(total-1) and interpolating linearly inside
// its value range. With log2 buckets the estimate is within 2x of the
// true sample quantile.
func quantile(counts *[numBuckets]uint64, total uint64, q float64) float64 {
	rank := q * float64(total-1)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc > rank {
			frac := (rank - cum + 0.5) / fc
			lo, hi := float64(bucketLo(i)), float64(bucketHi(i))
			return lo + frac*(hi-lo)
		}
		cum += fc
	}
	// Unreachable when total matches counts; be safe under racy reads.
	return float64(bucketHi(numBuckets - 1))
}
