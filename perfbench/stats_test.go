package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/query"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeWithholdsP99BelowMinSamples(t *testing.T) {
	s := summarize(seq(minP99Samples - 1))
	if s.HasP99 || s.N != minP99Samples-1 {
		t.Fatalf("999 samples: HasP99=%v N=%d, want false and 999", s.HasP99, s.N)
	}
	if s.P50 != 500 {
		t.Fatalf("999 samples: p50 %v, want 500", s.P50)
	}
	s = summarize(seq(minP99Samples))
	if !s.HasP99 || s.N != minP99Samples {
		t.Fatalf("1000 samples: HasP99=%v N=%d, want true and 1000", s.HasP99, s.N)
	}
	if s.P50 != 500 || s.P99 != 990 {
		t.Fatalf("1000 samples: p50 %v p99 %v, want 500 and 990", s.P50, s.P99)
	}
	if s := summarize(nil); s.N != 0 || s.HasP99 {
		t.Fatalf("no samples: %+v", s)
	}
}

func TestChunkedIgnoresASlowSpell(t *testing.T) {
	// Five slices of 1000 samples; one slice runs ten times slower.
	var xs []float64
	for c := 0; c < chunks; c++ {
		scale := 1.0
		if c == 2 {
			scale = 10
		}
		for i := 1; i <= 1000; i++ {
			xs = append(xs, scale*float64(i))
		}
	}
	// The p99 is the whole run's: the slow slice holds its top 1%.
	s := chunked(xs)
	if s.N != 5000 || s.P50 != 500 || !s.HasP99 || s.P99 != 9500 {
		t.Fatalf("chunked = %+v, want n 5000, p50 500, p99 9500", s)
	}
	if pooled := summarize(xs); pooled.P50 <= s.P50 {
		t.Fatalf("pooled p50 %v should feel the slow slice more than %v", pooled.P50, s.P50)
	}
	if s := chunked(xs[:2500]); !s.HasP99 || s.N != 2500 {
		t.Fatalf("2500 samples: %+v", s)
	}
	if s := chunked(xs[:999]); s.HasP99 {
		t.Fatalf("999 samples must withhold the p99: %+v", s)
	}
}

func TestChunkedRateIgnoresAStall(t *testing.T) {
	// 100 events a second for five seconds, except a stalled third second.
	var offsets []time.Duration
	for ms := 0; ms < 5000; ms += 10 {
		if ms/1000 != 2 {
			offsets = append(offsets, time.Duration(ms)*time.Millisecond)
		}
	}
	if got := chunkedRate(offsets, 5*time.Second); got != 100 {
		t.Fatalf("chunked rate %v, want 100/s", got)
	}
	if got := chunkedRate(offsets, 0); got != 0 {
		t.Fatalf("empty span: rate %v", got)
	}
}

// TestOpenLoopLagChargesStalls replays an open-loop schedule in which
// one send stalls: every send queued behind it is late by the stall,
// and its lag, timed from its due time, says so even though each of
// those sends took only a moment once it started.
func TestOpenLoopLagChargesStalls(t *testing.T) {
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	p := newPacer(t0, 1000) // one send per millisecond
	const n, stalled = 100, 3
	stall := 50 * time.Millisecond
	service := 100 * time.Microsecond
	now := t0
	lags := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		if due := p.due(i); now.Before(due) {
			now = due // the feeder waits for the due time
		}
		cost := service
		if i == stalled {
			cost = stall
		}
		now = now.Add(cost)
		lags[i] = p.lag(i, now)
	}
	if lags[stalled-1] != service {
		t.Fatalf("send before the stall: lag %v, want %v", lags[stalled-1], service)
	}
	if lags[stalled] != stall {
		t.Fatalf("stalled send: lag %v, want %v", lags[stalled], stall)
	}
	// The next send was due 1ms after the stalled one and ran 100µs
	// after it finished.
	if want := stall - time.Millisecond + service; lags[stalled+1] != want {
		t.Fatalf("send after the stall: lag %v, want %v", lags[stalled+1], want)
	}
	for i := stalled + 1; i < stalled+40; i++ {
		if lags[i] < 10*time.Millisecond {
			t.Fatalf("send %d behind the stall reads lag %v; the stall was not charged to it", i, lags[i])
		}
	}
	if lags[n-1] != service {
		t.Fatalf("after catching up: lag %v, want %v", lags[n-1], service)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "query.spacetime", Start: 0, End: 100},
		// Two overlapping children cover [10, 50]; a third runs past
		// the parent's end and covers only [90, 100] of it.
		{ID: 2, Parent: 1, Req: 1, Name: "objects.get", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "objects.get", Start: 20, End: 50},
		{ID: 4, Parent: 1, Req: 1, Name: "objects.get", Start: 90, End: 120},
		{ID: 5, Req: 5, Name: "query.http.live", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	if self["query"] != 50 {
		t.Errorf("query self time %d, want 100 - 50 covered = 50", self["query"])
	}
	if self["objects"] != 20+30+30 {
		t.Errorf("objects self time %d, want 80", self["objects"])
	}
	if self["query.http"] != 60 {
		t.Errorf("query.http self time %d, want 60", self["query.http"])
	}
}

func TestTracerParentsObjectReadsOnTheForegroundSpan(t *testing.T) {
	tr := newTracer()
	q := tr.beginFG("query.spacetime")
	get := tr.begin("objects.get", tr.foreground())
	get.end()
	q.end()
	put := tr.begin("objects.put", tr.foreground())
	put.end()
	byName := map[string]span{}
	for _, s := range tr.all() {
		byName[s.Name] = s
	}
	g, qs, p := byName["objects.get"], byName["query.spacetime"], byName["objects.put"]
	if g.Parent != qs.ID || g.Req != qs.Req {
		t.Errorf("get under an open query: parent %d req %d, want %d/%d", g.Parent, g.Req, qs.ID, qs.Req)
	}
	if p.Parent != 0 || p.Req == qs.Req {
		t.Errorf("put after the query ended: parent %d req %d, want a root of its own", p.Parent, p.Req)
	}
	var nilTracer *tracer
	nilTracer.begin("x", nil).end() // untraced runs: no-ops
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Fatalf("empty tally frac %v", tl.frac())
	}
	tl.ok(true)
	tl.ok(true)
	tl.ok(false)
	tl.add(10, 2)
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 13 || f != 3 {
		t.Fatalf("attempted %d failed %d, want 13 and 3", a, f)
	}
	if got := tl.frac(); math.Abs(got-3.0/13) > 1e-12 {
		t.Fatalf("failed_frac %v, want 3/13", got)
	}
}

func TestCheckAnswerRejectsAStateOutsideTheBox(t *testing.T) {
	at := time.Date(2017, 3, 21, 0, 10, 0, 0, time.UTC)
	req := query.Request{
		Kind: query.KindSpaceTime, Box: &query.Box{MinLat: 40, MinLon: 5, MaxLat: 41, MaxLon: 6},
		From: at.Add(-10 * time.Minute), To: at,
	}
	good := &query.Result{Kind: query.KindSpaceTime, States: []query.State{
		{MMSI: 1, At: at.Add(-time.Minute), Lat: 40.5, Lon: 5.5},
		{MMSI: 2, At: at.Add(-2 * time.Minute), Lat: 40.2, Lon: 5.2},
	}}
	if err := checkAnswer(req, good); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	bad := &query.Result{Kind: query.KindSpaceTime, States: []query.State{{MMSI: 1, At: at, Lat: 42, Lon: 5.5}}}
	if checkAnswer(req, bad) == nil {
		t.Fatal("state outside the box accepted")
	}
	disordered := &query.Result{Kind: query.KindSpaceTime, States: []query.State{good.States[1], good.States[0]}}
	if checkAnswer(req, disordered) == nil {
		t.Fatal("states out of (mmsi, time) order accepted")
	}
}

func TestSpecMatchesBenchmarkFile(t *testing.T) {
	b, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNames(b, sp); err != nil {
		t.Fatal(err)
	}
}

func TestDeckDealsTheExactMixAndHTTPShare(t *testing.T) {
	f := &feed{pos: []posRef{{mmsi: 7, at: time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)}}}
	w := &workloadSpec{QueryMix: map[string]int{"spacetime": 2, "anomalies.ranked": 1}, HTTPShare: 0.25}
	g := newQueryGen(1, f, w)
	got := map[deal]int{}
	for i := 0; i < 10*len(g.deck); i++ {
		d, req := g.request(1)
		if req.Kind != d.shape.kind() || (d.shape == rankedAnomalies) != (req.Kind == query.KindAnomalies && req.MMSI == 0) {
			t.Fatalf("card %v built request %+v", d, req)
		}
		got[d]++
	}
	want := map[deal]int{
		{"spacetime", false}: 60, {"spacetime", true}: 20,
		{rankedAnomalies, false}: 30, {rankedAnomalies, true}: 10,
	}
	if len(g.deck) != 12 || len(got) != len(want) {
		t.Fatalf("deck of %d cards dealt %v, want 12 cards dealing %v", len(g.deck), got, want)
	}
	for d, n := range want {
		if got[d] != n {
			t.Errorf("%v dealt %d times in 10 cycles, want %d", d, got[d], n)
		}
	}
	if (&workloadSpec{HTTPShare: 0.3}).httpEvery() != 0 {
		t.Error("http_share 0.3 accepted as 1/n")
	}
}

func TestWeightedGeoMeanCountsEveryValueByItsWeight(t *testing.T) {
	if got := weightedGeoMean([]float64{10, 1000}, []float64{1, 1}); math.Abs(got-100) > 1e-9 {
		t.Fatalf("equal weights: %v, want 100", got)
	}
	if got := weightedGeoMean([]float64{10, 1000}, []float64{3, 1}); math.Abs(got-math.Pow(10, 1.5)) > 1e-9 {
		t.Fatalf("weights 3:1: %v, want 10^1.5", got)
	}
	// Tripling one of eleven equal-weight values moves the mean by 3^(1/11).
	xs, ws := make([]float64, 11), make([]float64, 11)
	for i := range xs {
		xs[i], ws[i] = float64(10*(i+1)), 1
	}
	base := weightedGeoMean(xs, ws)
	xs[0] *= 3
	if got := weightedGeoMean(xs, ws) / base; math.Abs(got-math.Pow(3, 1.0/11)) > 1e-9 {
		t.Fatalf("one value tripled moves the mean by %v, want 3^(1/11)", got)
	}
}
