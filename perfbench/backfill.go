package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/tier"
)

// backfillPass is what one full-speed replay measured.
type backfillPass struct {
	dir      string
	took     time.Duration // first line until Wait returned
	lagMS    []float64
	archived int64
	bytes    int64
	blocked  time.Duration
	drain    time.Duration
	decode   ais.DecoderStats
}

// runBackfill replays the whole feed at full speed through a fresh
// engine and WAL per pass, for the run length; then restarts the last
// pass's daemon from its WAL and queries the recovered archive.
func runBackfill(v *env) error {
	f, setupS, err := v.setupFeed()
	if err != nil {
		return err
	}
	v.e2e("setup_s", median(setupS), "s", len(setupS))
	v.setHeapBase()

	var rates, tracedS, untracedS, lags []float64
	var passes []*backfillPass
	var cd coreDelta
	var blocked, feedTime time.Duration
	var drainMS []float64
	var malformed int64
	var hub stream.MetricsSnapshot
	var storeShim *timedBackend
	mem0 := readMem()
	deadline := time.Now().Add(time.Duration(float64(v.seconds) * (1 - backfillQueryShare)))
	for k := 0; ; k++ {
		traced := v.traced && k%2 == 1
		p, e, shim, err := v.backfillPass(f, k, traced)
		if err != nil {
			return err
		}
		if shim != nil {
			storeShim = shim
		}
		snap := e.Snapshot()
		cd.add(core.Snapshot{}, snap)
		hm := e.Hub().Metrics.Snapshot()
		hub.In, hub.Out, hub.Dropped = hub.In+hm.In, hub.Out+hm.Out, hub.Dropped+hm.Dropped
		malformed += int64(p.decode.Malformed)
		rates = append(rates, float64(len(f.lines))/p.took.Seconds())
		if traced {
			tracedS = append(tracedS, p.took.Seconds())
		} else {
			untracedS = append(untracedS, p.took.Seconds())
		}
		lags = append(lags, p.lagMS...)
		blocked += p.blocked
		feedTime += p.took - p.drain
		drainMS = append(drainMS, float64(p.drain.Nanoseconds())/1e6)
		if len(passes) > 0 {
			removeAll(passes[len(passes)-1].dir)
		}
		passes = append(passes, p)
		if k >= 2 && !time.Now().Before(deadline) {
			v.reportHeap()
			runtime.KeepAlive(e)
			break
		}
	}
	mem1 := readMem()
	last := passes[len(passes)-1]

	v.e2e("ingest_msgs_per_s", median(rates), "msg/s", len(rates))
	lagS := chunked(lags)
	if !lagS.HasP99 {
		return fmt.Errorf("%d subscription updates: too few for a p99 (need %d)", lagS.N, minP99Samples)
	}
	v.e2e("update_lag_p50_ms", lagS.P50, "ms", lagS.N)
	v.e2e("update_lag_p99_ms", lagS.P99, "ms", lagS.N)
	bpp := make([]float64, len(passes))
	for i, p := range passes {
		bpp[i] = ratio(float64(p.bytes), float64(p.archived))
	}
	v.e2e("store_bytes_per_point", median(bpp), "B", len(bpp))

	// Restart the last pass's daemon from its WAL, then query the
	// recovered archive.
	rs, err := v.restarts(f, last.dir, "", restartReps, 0, nil)
	if err != nil {
		return err
	}
	v.reportRestart(rs, last.archived)
	r := rs[len(rs)-1]
	c := newClient(v, r.e, nil, newQueryGen(v.seed, f, v.w))
	t0 := time.Now()
	for len(c.all) < minP99Samples || time.Since(t0) < time.Duration(float64(v.seconds)*backfillQueryShare) {
		c.one(len(f.pos))
	}
	if err := c.report(time.Since(t0)); err != nil {
		return err
	}
	if err := r.shutdown(); err != nil {
		return fmt.Errorf("stopping the restarted daemon: %w", err)
	}
	removeAll(r.dir)
	removeAll(last.dir)

	// Per-layer figures.
	v.reportCore(cd)
	v.reportRuntime(mem0, mem1, len(f.lines)*len(passes))
	v.reportDecode(ais.DecoderStats{Malformed: int(malformed)}, len(f.lines)*len(passes))
	v.layer("ingest.submit_wait_frac", ratio(blocked.Seconds(), feedTime.Seconds()), "ratio", len(passes))
	v.layer("ingest.drain_ms", median(drainMS), "ms", len(drainMS))
	v.layer("loadgen.late_p99_ms", 0, "ms", 0) // closed loop: nothing is due, so nothing is late
	v.reportHubDelta(stream.MetricsSnapshot{}, hub)
	v.reportTier(tier.Stats{}, tier.Stats{}, 0)
	v.reportObjects(nil, nil)
	if v.traced {
		// The replay pass, not the query phase, is backfill's headline:
		// its overhead replaces the one the client recorded.
		v.layer("trace.overhead_pct", 100*(ratio(median(tracedS), median(untracedS))-1), "%", len(tracedS))
	}
	return v.finishTraced(f, f.lines, storeShim)
}

// backfillQueryShare is the share of the run length given to querying
// the recovered archive; replay passes take the rest.
const backfillQueryShare = 0.3

// restartReps is how many times backfill and live-ops restart their
// daemon; restart_s is the median.
const restartReps = 25

// setupReps is how many times every workload runs its set-up; setup_s
// is the median.
const setupReps = 3

// setupFeed generates the workload's feed setupReps times and returns
// the last copy with every set-up time.
func (v *env) setupFeed() (*feed, []float64, error) {
	var f *feed
	var times []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		ff, err := genFeed(v.seed, v.w.Vessels, v.w.FeedMinutes)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		f = ff
	}
	return f, times, nil
}

// backfillPass replays the feed once through a fresh daemon and checks
// what it decoded and persisted.
func (v *env) backfillPass(f *feed, k int, traced bool) (*backfillPass, *ingest.Engine, *timedBackend, error) {
	dir := filepath.Join(v.dir, fmt.Sprintf("pass-%d", k))
	arch, err := store.Open(v.storeConfig(dir, nil))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("opening the WAL: %w", err)
	}
	cfg := v.engineConfig(f, nil)
	shim := v.backendFor(arch, &cfg, traced)
	e := ingest.New(cfg)
	e.Start(v.ctx)
	subs, boxes, err := v.subscribe(e, f)
	if err != nil {
		return nil, nil, nil, err
	}
	lines := make(chan ingest.Line, 1024)
	e.StartLines(v.ctx, lines, nil)
	fd := newFeeder(v, e, lines, subs, boxes)
	sent := make([]time.Time, len(f.lines))
	p := &backfillPass{dir: dir}
	fd.onState = func(s *query.State, recv time.Time) {
		if i, ok := f.lineOf[stateKey{s.MMSI, s.At.UnixNano()}]; ok {
			p.lagMS = append(p.lagMS, float64(recv.Sub(sent[i]).Nanoseconds())/1e6)
		}
	}
	var feedSpan *openSpan
	if traced {
		feedSpan = v.tr.begin("ingest.feed", nil)
	}
	t0 := time.Now()
	for i, l := range f.lines {
		sent[i] = time.Now()
		fd.send(l)
	}
	feedSpan.end()
	var drainSpan *openSpan
	if traced {
		drainSpan = v.tr.begin("ingest.drain", nil)
	}
	tClose := time.Now()
	fd.finish(e)
	p.took = time.Since(t0)
	p.drain = time.Since(tClose)
	drainSpan.end()
	p.blocked = fd.blocked
	v.closeSubs(subs)
	p.decode = e.DecodeStats()

	// Checks: every generated position decoded and ingested, nothing
	// refused, the WAL holds exactly what was archived.
	snap := e.Snapshot()
	okCount := snap.Ingested == int64(f.positions) && p.decode.Messages == f.positions+f.statics
	if !okCount {
		fmt.Fprintf(os.Stderr, "perfbench: pass %d ingested %d of %d positions, decoded %d of %d messages\n",
			k, snap.Ingested, f.positions, p.decode.Messages, f.positions+f.statics)
	}
	v.fails.ok(okCount)
	v.fails.add(e.Metrics.In.Load(), e.Metrics.Dropped.Load())
	if err := e.FlushErr(); err != nil {
		return nil, nil, nil, fmt.Errorf("persistence: %w", err)
	}
	if err := closeArchive(arch); err != nil {
		return nil, nil, nil, fmt.Errorf("closing the WAL: %w", err)
	}
	p.archived = snap.Archived
	if p.bytes, err = dirBytes(dir); err != nil {
		return nil, nil, nil, err
	}
	ro, err := store.OpenReadOnly(v.storeConfig(dir, nil))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reopening the WAL read-only: %w", err)
	}
	okWAL := int64(ro.Stats.Total()) == p.archived
	if !okWAL {
		fmt.Fprintf(os.Stderr, "perfbench: pass %d WAL recovers %d points, archived %d\n", k, ro.Stats.Total(), p.archived)
	}
	v.fails.ok(okWAL)
	return p, e, shim, nil
}
