package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/tier"
)

// daemon is a running engine fed through StartLines, with its archive.
type daemon struct {
	arch  *store.Archive
	e     *ingest.Engine
	shim  *timedBackend
	lines chan ingest.Line
	fd    *feeder
	dir   string
}

// runLiveOps preloads a recent history, then paces the rest of the feed
// while one client issues the query mix and the feeder watches standing
// box watches and the alerts feed.
func runLiveOps(v *env) error {
	var f *feed
	var d *daemon
	var setupS []float64
	var preload int
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			removeAll(d.dir)
			d = nil
		}
		t0 := time.Now()
		var err error
		if f, err = genFeed(v.seed, v.w.Vessels, v.w.FeedMinutes); err != nil {
			return err
		}
		// The heap baseline is read between the feed and the engine, off
		// the set-up clock.
		genTook := time.Since(t0)
		v.setHeapBase()
		t0 = time.Now().Add(-genTook)
		preload = int(float64(len(f.lines)) * v.w.PreloadShare)
		if d, err = v.startDaemon(f, filepath.Join(v.dir, fmt.Sprintf("data-%d", r))); err != nil {
			return err
		}
		for _, l := range f.lines[:preload] {
			d.fd.send(l)
		}
		for d.e.Snapshot().Ingested < int64(f.posBefore(preload)) {
			d.fd.waitUntil(time.Now().Add(time.Millisecond))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	v.e2e("setup_s", median(setupS), "s", len(setupS))

	res, err := v.measureOpenLoop(f, d, preload, newQueryGen(v.seed, f, v.w))
	if err != nil {
		return err
	}
	bytes, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	v.e2e("store_bytes_per_point", ratio(float64(bytes), float64(res.archived)), "B", int(res.archived))
	rs, err := v.restarts(f, d.dir, "", restartReps, 0, nil)
	if err != nil {
		return err
	}
	v.reportRestart(rs, res.archived)
	last := rs[len(rs)-1]
	if err := last.shutdown(); err != nil {
		return fmt.Errorf("stopping the restarted daemon: %w", err)
	}
	removeAll(last.dir)
	v.reportObjects(nil, nil)
	return v.finishTraced(f, res.fedLines, d.shim)
}

// startDaemon opens the archive, starts the engine and its line feed.
func (v *env) startDaemon(f *feed, dir string) (*daemon, error) {
	arch, err := store.Open(v.storeConfig(dir, nil))
	if err != nil {
		return nil, fmt.Errorf("opening the archive: %w", err)
	}
	cfg := v.engineConfig(f, nil)
	shim := v.backendFor(arch, &cfg, v.traced)
	return v.startEngine(arch, cfg, shim, dir), nil
}

// startEngine starts an engine over an opened archive and its line feed.
func (v *env) startEngine(arch *store.Archive, cfg ingest.Config, shim *timedBackend, dir string) *daemon {
	d := &daemon{arch: arch, e: ingest.New(cfg), shim: shim, lines: make(chan ingest.Line, 1024), dir: dir}
	d.e.Start(v.ctx)
	d.e.StartLines(v.ctx, d.lines, nil)
	d.fd = newFeeder(v, d.e, d.lines, nil, nil)
	return d
}

// stop drains the feed and closes the archive.
func (d *daemon) stop() error {
	d.fd.finish(d.e)
	if err := d.e.FlushErr(); err != nil {
		return fmt.Errorf("persistence: %w", err)
	}
	return closeArchive(d.arch)
}

// openLoopResult is what the caller of measureOpenLoop still needs.
type openLoopResult struct {
	archived int64         // points in the archive when the daemon stopped
	fedLines []ingest.Line // the lines paced in
}

// measureOpenLoop is the measured phase shared by live-ops and
// cold-archive: lines from index first on are paced at the workload's
// rate while one closed-loop client queries, for the run length; then
// the feed drains, the quiesced daemon answers a fixed request set
// byte-identically in process and over HTTP, and the daemon stops.
func (v *env) measureOpenLoop(f *feed, d *daemon, first int, gen *queryGen) (*openLoopResult, error) {
	e := d.e
	subs, boxes, err := v.subscribe(e, f)
	if err != nil {
		return nil, err
	}
	front, err := startHTTP(e)
	if err != nil {
		return nil, err
	}
	fd := newFeeder(v, e, d.lines, subs, boxes)
	d.fd = fd
	pace := newPacer(time.Now(), v.w.PacedLinesPerS)
	var lags []float64
	fd.onState = func(s *query.State, recv time.Time) {
		if i, ok := f.lineOf[stateKey{s.MMSI, s.At.UnixNano()}]; ok && i >= first {
			lags = append(lags, float64(pace.lag(i-first, recv).Nanoseconds())/1e6)
		}
	}
	snap0, hub0, tier0, mem0 := e.Snapshot(), e.Hub().Metrics.Snapshot(), e.TierStats(), readMem()
	in0, dropped0 := e.Metrics.In.Load(), e.Metrics.Dropped.Load()
	var fed atomic.Int64
	fed.Store(int64(f.posBefore(first)))
	stop := make(chan struct{})
	c := newClient(v, e, front.client, gen)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.one(int(fed.Load()))
			}
		}
	}()

	// The feeder: line first+j is due at pace.due(j), whatever happened
	// to the lines before it.
	var late []float64
	deadline := pace.start.Add(v.seconds)
	feedSpan := v.tr.begin("ingest.feed", nil)
	n, pi := 0, f.posBefore(first)
	for i := first; i < len(f.lines); i++ {
		due := pace.due(i - first)
		if !due.Before(deadline) {
			break
		}
		fd.waitUntil(due)
		late = append(late, float64(time.Since(due).Nanoseconds())/1e6)
		fd.send(f.lines[i])
		for pi < len(f.pos) && f.pos[pi].line <= i {
			pi++
		}
		fed.Store(int64(pi))
		n++
	}
	fd.waitUntil(deadline)
	feedSpan.end()
	fedFor := time.Since(pace.start)
	close(stop)
	wg.Wait()
	if first+n == len(f.lines) && float64(n) < 0.9*v.w.PacedLinesPerS*v.seconds.Seconds() {
		return nil, fmt.Errorf("feed ran out after %d paced lines; lengthen feed_minutes", n)
	}
	drainSpan := v.tr.begin("ingest.drain", nil)
	tClose := time.Now()
	fd.finish(e)
	drain := time.Since(tClose)
	drainSpan.end()

	v.e2e("ingest_msgs_per_s", float64(n)/fedFor.Seconds(), "msg/s", n)
	lagS := chunked(lags)
	if !lagS.HasP99 {
		return nil, fmt.Errorf("%d subscription updates: too few for a p99 (need %d)", lagS.N, minP99Samples)
	}
	v.e2e("update_lag_p50_ms", lagS.P50, "ms", lagS.N)
	v.e2e("update_lag_p99_ms", lagS.P99, "ms", lagS.N)
	if err := c.report(fedFor); err != nil {
		return nil, err
	}
	v.fails.add(e.Metrics.In.Load()-in0, e.Metrics.Dropped.Load()-dropped0)

	// Quiesced: the same requests answer byte-identically in process and
	// over HTTP.
	reqs := checkSet(v.seed, f, f.posBefore(first+n))
	want, err := answers(reqs, e.Query, nil)
	if err != nil {
		return nil, err
	}
	v.compareAnswers(reqs, want, front.client.Query, nil)

	mem1 := readMem()
	v.reportHeap()
	snap1, tier1 := e.Snapshot(), e.TierStats()
	v.reportHubDelta(hub0, e.Hub().Metrics.Snapshot())
	front.stop()
	v.closeSubs(subs)
	decode := e.DecodeStats()
	archived := int64(0)
	for _, p := range e.Sharded().Shards {
		archived += int64(p.Store.Len())
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	runtime.KeepAlive(e)

	var cd coreDelta
	cd.add(snap0, snap1)
	v.reportCore(cd)
	v.reportRuntime(mem0, mem1, n)
	v.reportDecode(decode, int(e.DecodeMetrics.In.Load()))
	v.layer("loadgen.late_p99_ms", quantile(sortedCopy(late), 0.99), "ms", len(late))
	v.layer("ingest.submit_wait_frac", ratio(fd.blocked.Seconds(), fedFor.Seconds()), "ratio", n)
	v.layer("ingest.drain_ms", float64(drain.Nanoseconds())/1e6, "ms", 1)
	v.reportTier(tier0, tier1, len(c.all))
	return &openLoopResult{archived: archived, fedLines: f.lines[first : first+n]}, nil
}

// reportHubDelta records the hub's fan-out over the measured phase.
func (v *env) reportHubDelta(a, b stream.MetricsSnapshot) {
	in, out, dropped := b.In-a.In, b.Out-a.Out, b.Dropped-a.Dropped
	v.layer("hub.deliveries_per_publish", ratio(float64(out), float64(in)), "ratio", int(in))
	v.layer("hub.dropped_frac", ratio(float64(dropped), float64(out+dropped)), "ratio", int(out+dropped))
}

// reportTier records page-back, cache and eviction activity between two
// tier snapshots (all zero without a memory budget).
func (v *env) reportTier(a, b tier.Stats, queries int) {
	v.layer("tier.page_ins_per_query", ratio(float64(b.PageIns-a.PageIns), float64(queries)), "ratio", queries)
	hits, misses := b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses
	v.layer("tier.cache_hit_frac", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses))
	v.layer("tier.evictions", float64(b.Evictions-a.Evictions), "count", 1)
	v.layer("tier.resident_points", float64(b.ResidentPoints), "count", 1)
}

// reportObjects records object-store timings (zero without one).
func (v *env) reportObjects(put, get []float64) {
	v.layerSummary("objects.put_us_p50", "", put, "us")
	v.layerSummary("objects.get_us_p50", "objects.get_us_p99", get, "us")
}

// finishTraced runs the traced run's replays and writes its spans.
func (v *env) finishTraced(f *feed, fedLines []ingest.Line, shim *timedBackend) error {
	if !v.traced {
		return nil
	}
	v.reportStore(shim)
	if err := v.replayDecode(fedLines); err != nil {
		return err
	}
	if err := v.replayStages(f, shim.records()); err != nil {
		return err
	}
	return v.reportSpans()
}
