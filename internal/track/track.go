// Package track is the online track-intelligence stage: a per-shard
// sink behind the ingest engine's post-synopsis tee (alongside the hub
// and the persistence flusher) that maintains fused per-vessel state as
// the feed arrives —
//
//   - a constant-velocity Kalman track per vessel, updated exactly as a
//     fusion.Tracker replay of the vessel's archived trajectory would be
//     (pinned by TestStageMatchesOfflineReplay), optionally fused with
//     anonymous radar detections (Mahalanobis-gated, Hungarian-assigned,
//     identity bound to the owning MMSI by the assignment);
//   - a shard-shared forecast.RouteModel trained incrementally per
//     vessel (forecast.Trainer), backing route-model predictions with
//     dead-reckoning fallback;
//   - a quality.Profile integrity score folded per vessel
//     (query.QualityAccumulator).
//
// The stage set answers the engine's three track-intelligence kinds as
// a lane of the live source (Stages.Answer routes each vessel to its
// owning shard's stage), so one-shot HTTP, standing /v1/stream queries,
// federation and tiering all read the same state. Everything is
// off-switchable: a nil ingest Config.Track means no stage in the tee
// and zero cost.
package track

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/forecast"
	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// Detection is one non-AIS sensor measurement: a position without an
// identity (radar contact). Callers convert from their sensor type
// (e.g. sim.RadarContact) so the stage stays sensor-agnostic.
type Detection struct {
	At      time.Time
	Pos     geo.Point
	SigmaM  float64 // sensor noise (1-sigma); Config.RadarSigmaM when 0
	Station int     // producing sensor, used to home orphaned contacts
}

// Config tunes the stage. The zero value is usable: default tracker
// lifecycle, 120 m radar noise, 64 recent points per vessel.
type Config struct {
	// Tracker is the fusion lifecycle (gate, process noise, confirmation,
	// drop); zero value = fusion.DefaultTrackerConfig(). The AIS
	// measurement model itself is fixed (query.AISPositionSigmaM) so the
	// online state stays replay-equivalent to the offline derivation.
	Tracker fusion.TrackerConfig
	// RadarSigmaM is the default detection noise (1-sigma, metres).
	RadarSigmaM float64
	// RecentPoints bounds the per-vessel history ring predictions read
	// their recent kinematics from.
	RecentPoints int
}

func (c Config) normalize() Config {
	if c.Tracker == (fusion.TrackerConfig{}) {
		c.Tracker = fusion.DefaultTrackerConfig()
	}
	if c.RadarSigmaM <= 0 {
		c.RadarSigmaM = 120
	}
	if c.RecentPoints <= 0 {
		c.RecentPoints = 64
	}
	return c
}

// vesselTrack is one vessel's fused state. The Kalman bookkeeping
// mirrors fusion.Tracker's identity-bound path exactly — predict to the
// measurement instant, update, hits/confirmation — without the
// per-scan association scaffolding a one-vessel scan does not need, so
// the ingest hot path pays filter arithmetic only.
type vesselTrack struct {
	filter    *fusion.KalmanCV
	hits      int
	misses    int
	confirmed bool
	lastSeen  time.Time
	// Per-sensor measurement counts, held as plain ints (a map increment
	// per record would hash a string key on the ingest hot path); asTrack
	// materialises the fusion.Track.Sources map at read time.
	srcAIS   int
	srcRadar int

	qa      *query.QualityAccumulator
	trainer *forecast.Trainer

	// recent is a ring of the vessel's latest samples (time order is
	// reconstructed from head on read).
	recent []model.VesselState
	head   int
}

// Stage is one shard's online tracker. It implements tstore.Sink, so
// the ingest engine tees archived records into it, and answers the
// track-intelligence reads for the vessels its shard owns.
type Stage struct {
	cfg Config

	mu      sync.Mutex
	vessels map[uint32]*vesselTrack
	route   *forecast.RouteModel
	orphans *fusion.Tracker // anonymous contacts gating to no vessel

	appends   atomic.Int64
	contacts  atomic.Int64
	assocHits atomic.Int64
	orphaned  atomic.Int64
	predicts  atomic.Int64
	predMiss  atomic.Int64

	appendNS *obs.Histogram // sampled (1/64); nil when uninstrumented
	assocNS  *obs.Histogram // per radar scan; nil when uninstrumented
}

var _ tstore.Sink = (*Stage)(nil)

// NewStage builds one shard's stage.
func NewStage(cfg Config) *Stage {
	cfg = cfg.normalize()
	return &Stage{
		cfg:     cfg,
		vessels: make(map[uint32]*vesselTrack),
		route:   forecast.NewRouteModel(query.RouteCellDeg),
		orphans: fusion.NewTracker(cfg.Tracker),
	}
}

// Append implements tstore.Sink: every archived record advances its
// vessel's fused state. It never fails — like the hub, a stage cannot
// refuse traffic.
func (s *Stage) Append(recs ...model.VesselState) error {
	if len(recs) == 0 {
		return nil
	}
	var t0 time.Time
	timed := s.appendNS != nil && s.appends.Add(1)&63 == 0
	if timed {
		t0 = time.Now()
	}
	s.mu.Lock()
	for i := range recs {
		s.observe(recs[i])
	}
	s.mu.Unlock()
	if timed {
		s.appendNS.ObserveSince(t0)
	}
	return nil
}

// observe folds one AIS record into its vessel (s.mu held).
func (s *Stage) observe(rec model.VesselState) {
	v, ok := s.vessels[rec.MMSI]
	if !ok {
		v = &vesselTrack{
			qa:      query.NewQualityAccumulator(rec.MMSI),
			trainer: s.route.NewTrainer(),
			recent:  make([]model.VesselState, 0, s.cfg.RecentPoints),
		}
		s.vessels[rec.MMSI] = v
	}
	m := query.AISMeasurement(rec)
	if v.filter == nil {
		// First measurement: like fusion.Tracker, the vessel's first
		// position anchors the local plane and initialises the filter.
		v.filter = fusion.NewKalmanCV(rec.Pos, s.cfg.Tracker.ProcessNoise)
		v.filter.Init(rec.At, rec.Pos, m.SigmaM)
		v.hits = 1
	} else {
		v.filter.Predict(rec.At)
		v.filter.Update(rec.Pos, m.SigmaM)
		v.hits++
		v.misses = 0
		if !v.confirmed && v.hits >= s.cfg.Tracker.ConfirmHits {
			v.confirmed = true
		}
	}
	v.lastSeen = rec.At
	v.srcAIS++

	v.qa.Observe(rec)
	v.trainer.Observe(rec)
	if len(v.recent) < cap(v.recent) {
		v.recent = append(v.recent, rec)
	} else {
		v.recent[v.head] = rec
		v.head = (v.head + 1) % len(v.recent)
	}
}

// recentPoints materialises the ring in time order (s.mu held).
func (v *vesselTrack) recentPoints() []model.VesselState {
	out := make([]model.VesselState, 0, len(v.recent))
	out = append(out, v.recent[v.head:]...)
	out = append(out, v.recent[:v.head]...)
	return out
}

// asTrack views the vessel as a fusion.Track for wire rendering
// (s.mu held; the view shares the live filter, render before unlocking).
// Sources carries only sensors that actually measured the vessel,
// matching the maps fusion.Tracker grows key by key.
func (v *vesselTrack) asTrack(mmsi uint32) *fusion.Track {
	sources := make(map[string]int, 2)
	if v.srcAIS > 0 {
		sources["ais"] = v.srcAIS
	}
	if v.srcRadar > 0 {
		sources["radar"] = v.srcRadar
	}
	return &fusion.Track{
		ID: 1, Filter: v.filter, Identity: mmsi,
		Hits: v.hits, Misses: v.misses, Confirmed: v.confirmed,
		LastSeen: v.lastSeen, Sources: sources,
	}
}

// Track returns a vessel's fused track state (nil, false when unknown).
func (s *Stage) Track(mmsi uint32) (*query.TrackState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vessels[mmsi]
	if !ok || v.filter == nil {
		return nil, false
	}
	return query.TrackStateOf(v.asTrack(mmsi)), true
}

// Predict forecasts a vessel horizon ahead: the shard-shared route
// model (every vessel's lanes) with dead-reckoning fallback, over the
// vessel's recent points.
func (s *Stage) Predict(mmsi uint32, horizon time.Duration) (*query.Prediction, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vessels[mmsi]
	if !ok {
		return nil, false
	}
	s.predicts.Add(1)
	p := query.PredictFrom(mmsi, v.recentPoints(), horizon, s.route)
	if p == nil {
		s.predMiss.Add(1)
		return nil, false
	}
	return p, true
}

// Quality returns a vessel's data-integrity score.
func (s *Stage) Quality(mmsi uint32) (*query.QualityScore, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vessels[mmsi]
	if !ok {
		return nil, false
	}
	qs := v.qa.Score()
	return qs, qs != nil
}

// VesselCount returns the number of vessels with fused state.
func (s *Stage) VesselCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vessels)
}

// OrphanCount returns the anonymous (never identity-bound) tracks held
// for detections that gated to no known vessel.
func (s *Stage) OrphanCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.orphans.Tracks)
}

// bestGate returns the smallest gated squared Mahalanobis distance from
// the detection to any of this stage's vessel tracks (predicted,
// non-mutating, to the detection instant).
func (s *Stage) bestGate(d Detection) (float64, bool) {
	sigma := d.SigmaM
	if sigma <= 0 {
		sigma = s.cfg.RadarSigmaM
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best := math.Inf(1)
	for _, v := range s.vessels {
		if v.filter == nil {
			continue
		}
		f := *v.filter // value copy: predicted gating must not advance the live filter
		f.Predict(d.At)
		if d2 := f.MahalanobisSq(d.Pos, sigma); d2 < best {
			best = d2
		}
	}
	return best, best <= s.cfg.Tracker.GateChi2
}

// detect fuses one radar scan's contacts into this stage's vessels:
// a cost matrix of gated Mahalanobis distances (vessels × contacts),
// solved by the Hungarian assignment, committed as anonymous updates to
// the winning tracks — which binds each contact to that track's MMSI.
// Contacts the assignment leaves free go to the orphan tracker.
func (s *Stage) detect(at time.Time, contacts []Detection) int {
	var t0 time.Time
	if s.assocNS != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	// Deterministic row order: map iteration must not decide ties.
	mmsis := make([]uint32, 0, len(s.vessels))
	for m, v := range s.vessels {
		if v.filter != nil {
			mmsis = append(mmsis, m)
		}
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
	costs := make([][]float64, len(mmsis))
	for i, m := range mmsis {
		costs[i] = make([]float64, len(contacts))
		f := *s.vessels[m].filter
		f.Predict(at)
		for j, d := range contacts {
			sigma := d.SigmaM
			if sigma <= 0 {
				sigma = s.cfg.RadarSigmaM
			}
			d2 := f.MahalanobisSq(d.Pos, sigma)
			if d2 > s.cfg.Tracker.GateChi2 {
				d2 = math.Inf(1)
			}
			costs[i][j] = d2
		}
	}
	assigned, _, freeMeas := fusion.Associate(costs)
	n := 0
	for _, a := range assigned {
		v, d := s.vessels[mmsis[a.Track]], contacts[a.Measurement]
		sigma := d.SigmaM
		if sigma <= 0 {
			sigma = s.cfg.RadarSigmaM
		}
		v.filter.Predict(at)
		v.filter.Update(d.Pos, sigma)
		v.hits++
		v.misses = 0
		v.lastSeen = at
		v.srcRadar++
		if !v.confirmed && v.hits >= s.cfg.Tracker.ConfirmHits {
			v.confirmed = true
		}
		n++
	}
	for _, j := range freeMeas {
		s.orphanLocked(contacts[j])
	}
	s.mu.Unlock()
	s.assocHits.Add(int64(n))
	s.orphaned.Add(int64(len(freeMeas)))
	if s.assocNS != nil {
		s.assocNS.ObserveSince(t0)
	}
	return n
}

// orphan routes one contact that gated to no vessel anywhere into this
// stage's anonymous tracker (which associates it among the orphans).
func (s *Stage) orphan(d Detection) {
	s.mu.Lock()
	s.orphanLocked(d)
	s.mu.Unlock()
	s.orphaned.Add(1)
}

func (s *Stage) orphanLocked(d Detection) {
	sigma := d.SigmaM
	if sigma <= 0 {
		sigma = s.cfg.RadarSigmaM
	}
	s.orphans.Process(d.At, []fusion.Measurement{{
		At: d.At, Pos: d.Pos, SigmaM: sigma, Source: "radar",
	}})
}

// Stages is the sharded stage set: one Stage per ingest shard, vessels
// routed by the same hash the pipelines shard by. It implements
// query.Answerer, so the engine's live source reads fused state straight
// from it.
type Stages []*Stage

// NewStages builds n stages (one per shard).
func NewStages(n int, cfg Config) Stages {
	if n < 1 {
		n = 1
	}
	out := make(Stages, n)
	for i := range out {
		out[i] = NewStage(cfg)
	}
	return out
}

// ShardFor returns the stage owning a vessel.
func (ss Stages) ShardFor(mmsi uint32) *Stage {
	return ss[stream.ShardOf(uint64(mmsi), len(ss))]
}

// Answer implements query.Answerer: the owning shard's state for the
// track, predict and quality kinds. It declines other kinds and vessels
// the stage has not observed; the engine answers those by replay.
func (ss Stages) Answer(req query.Request) (*query.Result, bool) {
	s := ss.ShardFor(req.MMSI)
	var p query.Payload
	var ok bool
	switch req.Kind {
	case query.KindTrack:
		p.Track, ok = s.Track(req.MMSI)
	case query.KindPredict:
		p.Prediction, ok = s.Predict(req.MMSI, time.Duration(req.Horizon))
	case query.KindQuality:
		p.Quality, ok = s.Quality(req.MMSI)
	}
	if !ok {
		return nil, false
	}
	return &query.Result{Kind: req.Kind, Payload: p}, true
}

// Process fuses a batch of detections, grouped into scans by timestamp
// (contacts of one scan arrive adjacent, as sensors emit them). Each
// contact is homed to the stage whose vessels gate it best, each
// stage's scan is Hungarian-assigned jointly, and contacts no vessel
// gates go to an orphan tracker (homed by station). Returns the number
// of contacts fused into identified vessel tracks.
func (ss Stages) Process(ds []Detection) int {
	if len(ss) == 0 || len(ds) == 0 {
		return 0
	}
	n := 0
	i := 0
	for i < len(ds) {
		j := i + 1
		for j < len(ds) && ds[j].At.Equal(ds[i].At) {
			j++
		}
		n += ss.scan(ds[i].At, ds[i:j])
		i = j
	}
	return n
}

func (ss Stages) scan(at time.Time, contacts []Detection) int {
	perStage := make([][]Detection, len(ss))
	for _, d := range contacts {
		best, bestD2 := -1, math.Inf(1)
		for si, st := range ss {
			if d2, ok := st.bestGate(d); ok && d2 < bestD2 {
				best, bestD2 = si, d2
			}
		}
		home := d.Station
		if home < 0 {
			home = -home
		}
		ss[home%len(ss)].contacts.Add(1)
		if best < 0 {
			ss[home%len(ss)].orphan(d)
			continue
		}
		perStage[best] = append(perStage[best], d)
	}
	n := 0
	for si, batch := range perStage {
		if len(batch) > 0 {
			n += ss[si].detect(at, batch)
		}
	}
	return n
}

// VesselCount sums fused vessels across stages.
func (ss Stages) VesselCount() int {
	n := 0
	for _, st := range ss {
		n += st.VesselCount()
	}
	return n
}

// OrphanCount sums anonymous tracks across stages.
func (ss Stages) OrphanCount() int {
	n := 0
	for _, st := range ss {
		n += st.OrphanCount()
	}
	return n
}

// Instrument registers the stage-set series with reg: vessel/orphan
// track gauges, contact counters (seen / fused / orphaned), predict
// counters (total / missed — the predict-error signal: a miss is a
// predict with no kinematic basis), sampled append cost and per-scan
// association latency.
func (ss Stages) Instrument(reg *obs.Registry) {
	sum := func(f func(*Stage) int64) func() float64 {
		return func() float64 {
			var n int64
			for _, st := range ss {
				n += f(st)
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("track_vessels", func() float64 { return float64(ss.VesselCount()) })
	reg.GaugeFunc("track_orphan_tracks", func() float64 { return float64(ss.OrphanCount()) })
	reg.CounterFunc("track_contacts_total", sum(func(st *Stage) int64 { return st.contacts.Load() }))
	reg.CounterFunc("track_contacts_fused_total", sum(func(st *Stage) int64 { return st.assocHits.Load() }))
	reg.CounterFunc("track_contacts_orphaned_total", sum(func(st *Stage) int64 { return st.orphaned.Load() }))
	reg.CounterFunc("track_predicts_total", sum(func(st *Stage) int64 { return st.predicts.Load() }))
	reg.CounterFunc("track_predict_misses_total", sum(func(st *Stage) int64 { return st.predMiss.Load() }))
	appendNS := reg.Histogram("track_append_ns")
	assocNS := reg.Histogram("track_associate_ns")
	for _, st := range ss {
		st.appendNS = appendNS
		st.assocNS = assocNS
	}
}
