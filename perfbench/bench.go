package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/ais"
	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/store"
	"repro/internal/track"
)

// env is one run of one workload.
type env struct {
	ctx     context.Context
	name    string
	w       *workloadSpec
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer // nil unless traced
	dir     string  // scratch directory of this run
	fails   tally
	out     *results
	// heapBase is the live heap, in MiB, once set-up has built the
	// benchmark's own data and before the measured engine starts;
	// heap_mib is read above it.
	heapBase float64
}

// results are the metrics a run prints.
type results struct {
	e2e, layer map[string]metricVal
}

type metricVal struct {
	value float64
	unit  string
	n     int // samples behind the value
}

func (v *env) e2e(name string, value float64, unit string, n int) {
	v.out.e2e[name] = metricVal{value, unit, n}
}

func (v *env) layer(name string, value float64, unit string, n int) {
	v.out.layer[name] = metricVal{value, unit, n}
}

// layerSummary records a per-layer timing's median and, when p99Name is
// set, its p99. Per-layer p99s are not withheld below minP99Samples;
// the report line gives the sample count.
func (v *env) layerSummary(p50Name, p99Name string, xs []float64, unit string) {
	sorted := sortedCopy(xs)
	v.layer(p50Name, quantile(sorted, 0.5), unit, len(xs))
	if p99Name != "" {
		v.layer(p99Name, quantile(sorted, 0.99), unit, len(xs))
	}
}

// engineConfig is the engine as maritimed builds it: obs registry and
// flight recorder on, shards = GOMAXPROCS, decode workers = shards.
func (v *env) engineConfig(f *feed, backend store.Backend) ingest.Config {
	cfg := ingest.Config{
		Pipeline: core.Config{Zones: f.zones, SynopsisToleranceM: v.w.SynopsisM},
		Shards:   runtime.GOMAXPROCS(0),
		Backend:  backend,
		Obs:      obs.NewRegistry(),
		Flight:   obs.NewFlight(4096),
	}
	if v.w.TeeStages {
		cfg.Track = &track.Config{}
		cfg.Anomaly = &anomaly.Config{Semantic: semstore.NewStore(), Zones: f.zones}
	}
	return cfg
}

func (v *env) storeConfig(dir string, remote store.ObjectStore) store.Config {
	return store.Config{Dir: dir, Sync: store.SyncRotate, Remote: remote, SegmentBytes: v.w.SegmentBytes}
}

// backendFor returns the archive's backend, wrapped in a timing shim in
// traced runs. The shim hides the *store.Disk from the engine, so its
// flight recorder and metrics are attached here instead.
func (v *env) backendFor(arch *store.Archive, cfg *ingest.Config, traced bool) *timedBackend {
	if !traced {
		cfg.Backend = arch.Backend
		return nil
	}
	arch.Backend.SetFlight(cfg.Flight)
	arch.Backend.Instrument(cfg.Obs)
	shim := &timedBackend{inner: arch.Backend, tr: v.tr}
	cfg.Backend = shim
	return shim
}

// --- feeding -------------------------------------------------------------------

// feeder hands lines to the engine from one goroutine and, between
// sends, drains the engine's alert stream and the workload's standing
// subscriptions, so arrival times are observed as they happen.
type feeder struct {
	v       *env
	lines   chan ingest.Line
	linesV  reflect.Value
	cases   []reflect.SelectCase // [0] send or timer, [1] alerts, [2:] subscriptions
	boxes   []*geo.Rect          // per subscription; nil for the alerts feed
	onState func(s *query.State, recv time.Time)

	sent       int
	blocked    time.Duration // time spent waiting for the engine to take a line
	alertsDone bool
	finished   bool
}

func newFeeder(v *env, e *ingest.Engine, lines chan ingest.Line, subs []*query.Subscription, boxes []*geo.Rect) *feeder {
	fd := &feeder{v: v, lines: lines, linesV: reflect.ValueOf(lines), boxes: boxes}
	fd.cases = make([]reflect.SelectCase, 2, 2+len(subs))
	fd.cases[0] = idleCase
	fd.cases[1] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(e.Alerts())}
	for _, s := range subs {
		fd.cases = append(fd.cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.Updates())})
	}
	return fd
}

// idleCase is a select case that never fires (a receive from no channel).
var idleCase = reflect.SelectCase{Dir: reflect.SelectRecv}

func (fd *feeder) handle(i int, val reflect.Value, ok bool, now time.Time) {
	if !ok {
		fd.cases[i] = idleCase
		if i == 1 {
			fd.alertsDone = true
		}
		return
	}
	if i == 1 {
		return
	}
	u := val.Interface().(query.Update)
	if u.Kind != query.UpdateState || u.State == nil {
		return
	}
	if box := fd.boxes[i-2]; box != nil {
		fd.v.fails.ok(box.Contains(geo.Point{Lat: u.State.Lat, Lon: u.State.Lon}))
	}
	if fd.onState != nil {
		fd.onState(u.State, now)
	}
}

// poll drains whatever is ready without blocking.
func (fd *feeder) poll() {
	cases := append(fd.cases[1:len(fd.cases):len(fd.cases)], reflect.SelectCase{Dir: reflect.SelectDefault})
	for {
		i, val, ok := reflect.Select(cases)
		if i == len(cases)-1 {
			return
		}
		fd.handle(i+1, val, ok, time.Now())
	}
}

// send hands one line to the engine, draining outputs while it waits.
func (fd *feeder) send(l ingest.Line) {
	fd.sent++
	select {
	case fd.lines <- l:
		if fd.sent&63 == 0 {
			fd.poll()
		}
		return
	default:
	}
	t0 := time.Now()
	fd.cases[0] = reflect.SelectCase{Dir: reflect.SelectSend, Chan: fd.linesV, Send: reflect.ValueOf(l)}
	for {
		i, val, ok := reflect.Select(fd.cases)
		if i == 0 {
			break
		}
		fd.handle(i, val, ok, time.Now())
	}
	fd.cases[0] = idleCase
	fd.blocked += time.Since(t0)
}

// waitUntil drains outputs until t.
func (fd *feeder) waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		timer := time.NewTimer(d)
		fd.cases[0] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}
		i, val, ok := reflect.Select(fd.cases)
		fd.cases[0] = idleCase
		if i == 0 {
			return
		}
		timer.Stop()
		fd.handle(i, val, ok, time.Now())
	}
}

// finish closes the feed, drains until the engine has processed every
// line, waits for the flush stage and collects the last updates.
func (fd *feeder) finish(e *ingest.Engine) {
	if fd.finished {
		return
	}
	fd.finished = true
	close(fd.lines)
	for !fd.alertsDone {
		i, val, ok := reflect.Select(fd.cases)
		fd.handle(i, val, ok, time.Now())
	}
	e.Wait()
	fd.poll()
}

// subscribe opens the workload's standing queries: live-picture box
// watches tiling the world, plus an alerts feed when the workload has one.
func (v *env) subscribe(e *ingest.Engine, f *feed) ([]*query.Subscription, []*geo.Rect, error) {
	var subs []*query.Subscription
	var boxes []*geo.Rect
	rows, cols := v.w.BoxTiles[0], v.w.BoxTiles[1]
	b := f.bounds
	opt := query.SubOptions{Buffer: 1 << 14}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			box := query.Box{
				MinLat: b.MinLat + (b.MaxLat-b.MinLat)*float64(r)/float64(rows),
				MaxLat: b.MinLat + (b.MaxLat-b.MinLat)*float64(r+1)/float64(rows),
				MinLon: b.MinLon + (b.MaxLon-b.MinLon)*float64(c)/float64(cols),
				MaxLon: b.MinLon + (b.MaxLon-b.MinLon)*float64(c+1)/float64(cols),
			}
			s, err := e.Subscribe(query.Request{Kind: query.KindLivePicture, Box: &box}, opt)
			if err != nil {
				return nil, nil, fmt.Errorf("subscribing to a box watch: %w", err)
			}
			rect := box.Rect()
			subs, boxes = append(subs, s), append(boxes, &rect)
		}
	}
	if v.w.AlertsFeed {
		s, err := e.Subscribe(query.Request{Kind: query.KindAlertHistory}, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("subscribing to alerts: %w", err)
		}
		subs, boxes = append(subs, s), append(boxes, nil)
	}
	return subs, boxes, nil
}

// closeSubs cancels the subscriptions and counts their deliveries and
// drops; every drop is a failed operation.
func (v *env) closeSubs(subs []*query.Subscription) {
	for _, s := range subs {
		s.Cancel()
		v.fails.add(int64(s.Delivered()+s.Dropped()), int64(s.Dropped()))
	}
}

// --- querying ------------------------------------------------------------------

// client is the closed-loop query client: one request at a time, the
// workload's share of them over HTTP.
type client struct {
	v      *env
	e      *ingest.Engine
	remote *query.Client
	gen    *queryGen

	all      []float64       // µs, every query
	done     []time.Duration // when each query finished, from start
	start    time.Time
	byShape  map[shape][]float64 // µs, every query of the shape, HTTP too
	inproc   map[shape][]float64
	viaHTTP  map[shape][]float64
	rowSum   map[shape]int64
	rowN     map[shape]int64
	tstoreUS []float64
	// traced and untraced alternate in blocks within a traced run; their
	// latencies per shape give the tracing overhead.
	tracedUS, untracedUS map[shape][]float64
	errs                 int
}

func newClient(v *env, e *ingest.Engine, remote *query.Client, gen *queryGen) *client {
	return &client{
		v: v, e: e, remote: remote, gen: gen,
		start:   time.Now(),
		byShape: make(map[shape][]float64),
		inproc:  make(map[shape][]float64),
		viaHTTP: make(map[shape][]float64),
		rowSum:  make(map[shape]int64),
		rowN:    make(map[shape]int64),

		tracedUS:   make(map[shape][]float64),
		untracedUS: make(map[shape][]float64),
	}
}

const traceBlock = 64

// one issues the next request of the mix over the first fed positions.
func (c *client) one(fed int) {
	d, req := c.gen.request(fed)
	viaHTTP := d.viaHTTP && c.remote != nil
	traced := c.v.tr != nil && (len(c.all)/traceBlock)%2 == 1
	name := "query." + string(req.Kind)
	if viaHTTP {
		name = "query.http." + string(req.Kind)
	}
	var sp *openSpan
	if traced {
		sp = c.v.tr.beginFG(name)
	}
	t0 := time.Now()
	var res *query.Result
	var err error
	if viaHTTP {
		res, err = c.remote.Query(req)
	} else {
		res, err = c.e.Query(req)
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	sp.end()
	if err == nil {
		err = checkAnswer(req, res)
	}
	c.v.fails.ok(err == nil)
	if err != nil {
		c.errs++
		if c.errs <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s query failed: %v\n", req.Kind, err)
		}
	}
	c.all = append(c.all, us)
	c.byShape[d.shape] = append(c.byShape[d.shape], us)
	c.done = append(c.done, time.Since(c.start))
	if c.v.tr != nil {
		if traced {
			c.tracedUS[d.shape] = append(c.tracedUS[d.shape], us)
		} else {
			c.untracedUS[d.shape] = append(c.untracedUS[d.shape], us)
		}
	}
	if viaHTTP {
		c.viaHTTP[d.shape] = append(c.viaHTTP[d.shape], us)
	} else {
		c.inproc[d.shape] = append(c.inproc[d.shape], us)
		c.rowSum[d.shape] += int64(rows(res))
		c.rowN[d.shape]++
	}
	if traced && req.Kind == query.KindSpaceTime {
		c.directSpaceTime(req)
	}
}

// directSpaceTime repeats a spacetime request straight on every shard
// store, the read path under the query engine.
func (c *client) directSpaceTime(req query.Request) {
	r := req.Box.Rect()
	sp := c.v.tr.beginFG("tstore.spacetime")
	t0 := time.Now()
	for _, p := range c.e.Sharded().Shards {
		p.Store.SpaceTime(r, req.From, req.To)
	}
	c.tstoreUS = append(c.tstoreUS, float64(time.Since(t0).Nanoseconds())/1e3)
	sp.end()
}

// report turns the client's samples into the query metrics; elapsed is
// how long the client ran from its creation.
func (c *client) report(elapsed time.Duration) error {
	s := chunked(c.all)
	if !s.HasP99 {
		return fmt.Errorf("%d queries: too few for a p99 (need %d); lengthen the run", s.N, minP99Samples)
	}
	// query_p50_us weighs every shape by its share of the mix, not by
	// where its latency falls: a pooled median lands on whichever shape
	// straddles the middle and is blind to the others.
	var p50s, weights []float64
	for _, k := range shapes() {
		if w := c.v.w.QueryMix[string(k)]; w > 0 {
			if len(c.byShape[k]) == 0 {
				return fmt.Errorf("no %s query completed; lengthen the run", k)
			}
			p50s, weights = append(p50s, chunked(c.byShape[k]).P50), append(weights, float64(w))
		}
	}
	c.v.e2e("query_p50_us", weightedGeoMean(p50s, weights), "us", s.N)
	c.v.e2e("query_p99_us", s.P99, "us", s.N)
	c.v.e2e("query_per_s", chunkedRate(c.done, elapsed), "q/s", s.N)
	var overheadSum, overheadW, traceSum, traceW float64
	for _, k := range shapes() {
		ks := summarize(c.inproc[k])
		c.v.layer("query."+string(k)+".p50_us", ks.P50, "us", ks.N)
		c.v.layer("query."+string(k)+".p99_us", quantile(sortedCopy(c.inproc[k]), 0.99), "us", ks.N)
		c.v.layer("query."+string(k)+".rows_mean", ratio(float64(c.rowSum[k]), float64(c.rowN[k])), "rows", int(c.rowN[k]))
		if h := c.viaHTTP[k]; len(h) > 0 && ks.N > 0 {
			overheadSum += float64(len(h)) * (median(h) - ks.P50)
			overheadW += float64(len(h))
		}
		if tr, un := c.tracedUS[k], c.untracedUS[k]; len(tr) > 0 && len(un) > 0 {
			traceSum += float64(len(tr)) * (median(tr)/median(un) - 1)
			traceW += float64(len(tr))
		}
	}
	c.v.layer("query.http.overhead_us_p50", ratio(overheadSum, overheadW), "us", int(overheadW))
	c.v.layerSummary("tstore.spacetime_us_p50", "tstore.spacetime_us_p99", c.tstoreUS, "us")
	if c.v.tr != nil {
		// Per shape, traced blocks against untraced ones, weighted by
		// traced samples: the mix's shapes differ in cost by orders of
		// magnitude, so a pooled median would track the mix, not tracing.
		c.v.layer("trace.overhead_pct", 100*ratio(traceSum, traceW), "%", int(traceW))
	}
	return nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// httpFront serves the engine's query API on a loopback port, as
// maritimed -http does, and returns a client limited to one connection.
type httpFront struct {
	srv    *http.Server
	done   chan struct{}
	client *query.Client
}

func startHTTP(e *ingest.Engine) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &httpFront{srv: &http.Server{Handler: query.NewServer(e), ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "perfbench: query server:", err)
		}
	}()
	h.client = query.NewClient("http://" + ln.Addr().String())
	h.client.HTTP = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	return h, nil
}

func (h *httpFront) stop() {
	h.client.HTTP.CloseIdleConnections()
	if err := h.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing query server:", err)
	}
	<-h.done
}

// --- restart -------------------------------------------------------------------

// restarted is a daemon brought back from its data dir.
type restarted struct {
	dir       string // the copy it runs from
	arch      *store.Archive
	e         *ingest.Engine
	shim      *timedBackend
	took      time.Duration // store.Open until the first answer
	openTook  time.Duration // store.Open alone
	recovered int
}

// restart does what maritimed does at start-up: store.Open, Resume,
// Start, and the first query answered.
func (v *env) restart(f *feed, cfg store.Config, tune func(*ingest.Config)) (*restarted, error) {
	// A restarted daemon starts in a fresh process; collect the run's
	// garbage first so the restart does not pay for it.
	runtime.GC()
	sp := v.tr.beginFG("store.open")
	t0 := time.Now()
	arch, err := store.Open(cfg)
	openTook := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	ecfg := v.engineConfig(f, nil)
	shim := v.backendFor(arch, &ecfg, v.traced)
	if tune != nil {
		tune(&ecfg)
	}
	e := ingest.New(ecfg)
	n := e.Resume(arch.Store)
	e.Start(v.ctx)
	res, err := e.Query(query.Request{Kind: query.KindStats})
	took := time.Since(t0)
	if err == nil {
		err = checkAnswer(query.Request{Kind: query.KindStats}, res)
	}
	if err != nil {
		return nil, fmt.Errorf("restart: first query: %w", err)
	}
	return &restarted{arch: arch, e: e, shim: shim, took: took, openTook: openTook, recovered: n}, nil
}

// restarts restarts the daemon reps times, each from a fresh copy of
// the data dir (and of the object store, when remote is set), so no
// restart sees the segment an earlier one opened. All but the last are
// stopped; the last is returned. A budget > 0 arms the memory tier,
// spilling into the copied object store.
func (v *env) restarts(f *feed, data, remote string, reps int, budget int64, objects *objectTimes) ([]*restarted, error) {
	var rs []*restarted
	for i := 0; i < reps; i++ {
		if i > 0 {
			prev := rs[i-1]
			if err := prev.shutdown(); err != nil {
				return nil, fmt.Errorf("stopping a restarted daemon: %w", err)
			}
			removeAll(prev.dir)
		}
		dir := filepath.Join(v.dir, fmt.Sprintf("restart-%d", i))
		cfg := v.storeConfig(filepath.Join(dir, "data"), nil)
		if err := copyDir(data, cfg.Dir); err != nil {
			return nil, err
		}
		var spill store.ObjectStore
		if remote != "" {
			if err := copyDir(remote, filepath.Join(dir, "remote")); err != nil {
				return nil, err
			}
			var err error
			if cfg.Remote, spill, err = v.objectStores(filepath.Join(dir, "remote"), objects); err != nil {
				return nil, err
			}
		}
		r, err := v.restart(f, cfg, func(c *ingest.Config) {
			if budget > 0 {
				c.MemoryBudget, c.TierObjects = budget, spill
			}
		})
		if err != nil {
			return nil, err
		}
		r.dir = dir
		rs = append(rs, r)
	}
	return rs, nil
}

// objectStores opens the durable object store over dir and the spill
// store beside it, as maritimed does with -remote-dir and -mem-budget;
// in traced runs both are timed into objects.
func (v *env) objectStores(dir string, objects *objectTimes) (store.ObjectStore, store.ObjectStore, error) {
	remote, err := store.NewFSObjects(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("opening the object store: %w", err)
	}
	spill, err := store.NewFSObjectsCache(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("opening the spill store: %w", err)
	}
	if !v.traced {
		return remote, spill, nil
	}
	return &timedObjects{inner: remote, tr: v.tr, times: objects}, &timedObjects{inner: spill, tr: v.tr, times: objects}, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// reportRestart records the median restart time and recovery cost per
// point, and checks each restart recovered exactly the archived points.
func (v *env) reportRestart(rs []*restarted, archived int64) {
	var took, perPoint []float64
	for _, r := range rs {
		took = append(took, r.took.Seconds())
		perPoint = append(perPoint, ratio(float64(r.openTook.Nanoseconds()), float64(r.recovered)))
		ok := int64(r.recovered) == archived && int64(r.arch.Stats.Total()) == archived
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: restart recovered %d points (store says %d), archived %d\n", r.recovered, r.arch.Stats.Total(), archived)
		}
		v.fails.ok(ok)
	}
	v.e2e("restart_s", median(took), "s", len(took))
	v.layer("store.recover_ns_per_point", median(perPoint), "ns", int(archived))
}

// shutdown stops a restarted daemon that was never fed.
func (r *restarted) shutdown() error {
	r.e.Close()
	r.e.Wait()
	if err := r.e.FlushErr(); err != nil {
		return err
	}
	return closeArchive(r.arch)
}

// closeArchive closes an archive and reports a failed migration to its
// object store. The engine reports one too (FlushErr), but not in traced
// runs, where the timing shim hides the *store.Disk from it.
func closeArchive(arch *store.Archive) error {
	if err := arch.Close(); err != nil {
		return err
	}
	return arch.Backend.UploadErr()
}

// --- measurements shared by the workloads ----------------------------------------

type memSnap struct{ alloc, gcs, pauseNS uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// reportRuntime records allocation and GC work between two snapshots.
func (v *env) reportRuntime(a, b memSnap, msgs int) {
	v.layer("runtime.alloc_bytes_per_msg", ratio(float64(b.alloc-a.alloc), float64(msgs)), "B", msgs)
	v.layer("runtime.gc_cycles", float64(b.gcs-a.gcs), "count", 1)
	v.layer("runtime.gc_pause_ms", float64(b.pauseNS-a.pauseNS)/1e6, "ms", int(b.gcs-a.gcs))
}

// setHeapBase reads the live heap that heap_mib is measured above.
func (v *env) setHeapBase() { v.heapBase = heapMiB() }

// reportHeap records the live heap above the set-up baseline: what the
// program holds, less the feed, indexes and references the benchmark
// built for itself.
func (v *env) reportHeap() {
	v.e2e("heap_mib", heapMiB()-v.heapBase, "MiB", 1)
}

// heapMiB forces a GC and reads the live heap.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// coreDelta accumulates per-shard pipeline counters across engines.
type coreDelta struct{ s core.Snapshot }

func (c *coreDelta) add(a, b core.Snapshot) {
	c.s.Ingested += b.Ingested - a.Ingested
	c.s.Archived += b.Archived - a.Archived
	c.s.NsQuality += b.NsQuality - a.NsQuality
	c.s.NsSynopsis += b.NsSynopsis - a.NsSynopsis
	c.s.NsStore += b.NsStore - a.NsStore
	c.s.NsEvents += b.NsEvents - a.NsEvents
}

func (v *env) reportCore(c coreDelta) {
	n := float64(c.s.Ingested)
	v.layer("core.quality_ns_per_msg", ratio(float64(c.s.NsQuality), n), "ns", int(n))
	v.layer("core.synopsis_ns_per_msg", ratio(float64(c.s.NsSynopsis), n), "ns", int(n))
	v.layer("core.store_ns_per_msg", ratio(float64(c.s.NsStore), n), "ns", int(n))
	v.layer("core.events_ns_per_msg", ratio(float64(c.s.NsEvents), n), "ns", int(n))
	v.layer("core.archived_frac", ratio(float64(c.s.Archived), n), "ratio", int(n))
}

// reportDecode records the engine's decode counters.
func (v *env) reportDecode(ds ais.DecoderStats, lines int) {
	v.layer("ais.malformed_frac", ratio(float64(ds.Malformed), float64(lines)), "ratio", lines)
}

// reportStore records the backend shim's timings.
func (v *env) reportStore(shim *timedBackend) {
	var app, syn []float64
	if shim != nil {
		app, syn = shim.appendUS.values(), shim.syncMS.values()
	}
	v.layerSummary("store.append_us_p50", "store.append_us_p99", app, "us")
	v.layer("store.sync_ms_p99", quantile(sortedCopy(syn), 0.99), "ms", len(syn))
}

// replayDecode times the feed's lines through a decoder of the
// benchmark's own: the decode layer measured from outside the engine.
func (v *env) replayDecode(lines []ingest.Line) error {
	dec := ais.NewDecoder()
	t0 := time.Now()
	for lo := 0; lo < len(lines); lo += 4096 {
		sp := v.tr.begin("ais.decode", nil)
		for _, l := range lines[lo:min(lo+4096, len(lines))] {
			if _, err := dec.Decode(l.Text); err != nil {
				sp.end()
				return fmt.Errorf("decode replay: %w", err)
			}
		}
		sp.end()
	}
	v.layer("ais.decode_ns_per_line", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(lines))), "ns", len(lines))
	return nil
}

// replayStages times the archived records through track and anomaly
// stages of the benchmark's own, routed per shard as the engine routes
// them. A stage that is off in the workload reports 0.
func (v *env) replayStages(f *feed, recs []model.VesselState) error {
	shards := runtime.GOMAXPROCS(0)
	type appender interface {
		Append(recs ...model.VesselState) error
	}
	run := func(name string, stageFor func(uint32) appender) (float64, error) {
		per := make(map[appender][]model.VesselState)
		var order []appender
		for _, r := range recs {
			st := stageFor(r.MMSI)
			if _, ok := per[st]; !ok {
				order = append(order, st)
			}
			per[st] = append(per[st], r)
		}
		t0 := time.Now()
		for _, st := range order {
			batch := per[st]
			for lo := 0; lo < len(batch); lo += 512 {
				sp := v.tr.begin(name, nil)
				err := st.Append(batch[lo:min(lo+512, len(batch))]...)
				sp.end()
				if err != nil {
					return 0, fmt.Errorf("%s replay: %w", name, err)
				}
			}
		}
		return ratio(float64(time.Since(t0).Nanoseconds()), float64(len(recs))), nil
	}
	trackNS, anomNS := 0.0, 0.0
	var err error
	if v.w.TeeStages {
		ts := track.NewStages(shards, track.Config{})
		if trackNS, err = run("track.append", func(m uint32) appender { return ts.ShardFor(m) }); err != nil {
			return err
		}
		as := anomaly.NewStages(shards, anomaly.Config{Semantic: semstore.NewStore(), Zones: f.zones})
		if anomNS, err = run("anomaly.append", func(m uint32) appender { return as.ShardFor(m) }); err != nil {
			return err
		}
	}
	v.layer("track.append_ns_per_rec", trackNS, "ns", len(recs))
	v.layer("anomaly.append_ns_per_rec", anomNS, "ns", len(recs))
	return nil
}

// reportSpans writes the spans out and records per-layer self time.
func (v *env) reportSpans() error {
	spans := v.tr.all()
	self := selfTimes(spans)
	for _, l := range tracedLayers {
		v.layer(l+".self_ms", float64(self[l])/1e6, "ms", len(spans))
	}
	v.layer("trace.spans", float64(len(spans)), "count", len(spans))
	path := filepath.Join(filepath.Dir(v.dir), fmt.Sprintf("spans-%s-seed%d.ndjson", v.name, v.seed))
	if err := v.tr.export(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// dirBytes sums the sizes of the regular files under dir, skipping
// subdirectories named in skip.
func dirBytes(dir string, skip ...string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			for _, s := range skip {
				if d.Name() == s {
					return filepath.SkipDir
				}
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// compareAnswers runs the requests through two executors and counts the
// answers whose JSON differs; norm, when set, clears fields allowed to
// differ first.
func (v *env) compareAnswers(reqs []query.Request, want [][]byte, got func(query.Request) (*query.Result, error), norm func(*query.Result)) {
	for i, req := range reqs {
		res, err := got(req)
		ok := err == nil
		if ok {
			if norm != nil {
				norm(res)
			}
			b, jerr := json.Marshal(res)
			ok = jerr == nil && string(b) == string(want[i])
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s answer differs from its reference\n", req.Kind)
			}
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %s check query failed: %v\n", req.Kind, err)
		}
		v.fails.ok(ok)
	}
}

// answers runs the requests and keeps their JSON.
func answers(reqs []query.Request, exec func(query.Request) (*query.Result, error), norm func(*query.Result)) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		res, err := exec(req)
		if err != nil {
			return nil, fmt.Errorf("%s reference query: %w", req.Kind, err)
		}
		if norm != nil {
			norm(res)
		}
		if out[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// removeAll deletes a scratch directory, reporting a failure.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch dir:", err)
	}
}
