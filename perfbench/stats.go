package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minP99Samples is the sample count below which a p99 is withheld: with
// fewer, fewer than ten samples lie beyond it.
const minP99Samples = 1000

// summary is a timing distribution reduced to what the report prints.
type summary struct {
	N      int
	P50    float64
	P99    float64 // meaningful only when HasP99
	HasP99 bool
}

// summarize sorts a copy of xs and reads its median and, when at least
// minP99Samples exist, its p99.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	if len(sorted) >= minP99Samples {
		s.P99 = quantile(sorted, 0.99)
		s.HasP99 = true
	}
	return s
}

// quantile is the nearest-rank quantile of an ascending slice: the
// smallest sample with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// chunks is how many consecutive slices of a run chunked splits its
// samples into.
const chunks = 5

// chunked splits samples, in the order they were taken, into up to
// chunks consecutive slices and reports the median of the slices'
// medians, which a slow spell covering fewer than half of the slices
// does not move. The p99 is the whole run's, withheld (HasP99 false)
// below minP99Samples: a slice's p99 rests on a dozen samples past it,
// and over ten seeds the median of slice p99s spread half as wide
// again as the whole run's p99 taken from the same runs.
func chunked(xs []float64) summary {
	s := summarize(xs)
	if len(xs) == 0 {
		return s
	}
	k := min(chunks, len(xs))
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = median(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	s.P50 = median(vals)
	return s
}

// chunkedRate splits [0, span) into chunks equal slices and returns the
// median of their event rates per second, given each event's offset
// from the start: like chunked, it shrugs off a slow spell that covers
// fewer than half of the slices.
func chunkedRate(offsets []time.Duration, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	counts := make([]float64, chunks)
	for _, o := range offsets {
		if i := int(int64(o) * chunks / int64(span)); i >= 0 && i < chunks {
			counts[i]++
		}
	}
	slice := span.Seconds() / chunks
	for i := range counts {
		counts[i] /= slice
	}
	return median(counts)
}

// median is the nearest-rank median of xs (not modified).
func median(xs []float64) float64 { return summarize(xs).P50 }

// weightedGeoMean is exp(Σ w·ln x / Σ w), the mean TPC-H's power metric
// takes over its queries: a change by a factor f in a value of weight w
// moves it by f^(w/Σw), whatever the value's size. Values must be
// positive.
func weightedGeoMean(xs, ws []float64) float64 {
	var sum, wsum float64
	for i, x := range xs {
		sum += ws[i] * math.Log(x)
		wsum += ws[i]
	}
	if wsum == 0 {
		return 0
	}
	return math.Exp(sum / wsum)
}

// sampler collects samples from several goroutines.
type sampler struct {
	mu sync.Mutex
	xs []float64
}

func (s *sampler) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *sampler) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// tally counts operations attempted and failed across goroutines; every
// answer check, refused report, dropped update and failed restart lands
// here.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// ok records one operation and whether it succeeded.
func (t *tally) ok(success bool) {
	t.attempted.Add(1)
	if !success {
		t.failed.Add(1)
	}
}

// add records n operations of which failed failed.
func (t *tally) add(n, failed int64) {
	t.attempted.Add(n)
	t.failed.Add(failed)
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) frac() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed.Load()) / float64(a)
}

// pacer is an open-loop schedule: line i is due at start + i·interval,
// whatever happened to the lines before it.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(start time.Time, perSecond float64) pacer {
	return pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// lag is how long after its due time an outcome of send i was observed.
// Timing from the due time rather than from the actual send charges a
// stalled send to every later send it delayed.
func (p pacer) lag(i int, observed time.Time) time.Duration { return observed.Sub(p.due(i)) }

// ratio is num ÷ den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
