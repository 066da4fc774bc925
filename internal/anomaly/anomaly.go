// Package anomaly is the streaming anomaly lane: a per-shard sink
// behind the ingest engine's post-synopsis tee (alongside the hub, the
// persistence flusher and the track stage) that watches the live feed
// for behavioral anomalies as records arrive —
//
//   - a behavior profile per vessel (query.AnomalyAccumulator): sliding-
//     window distribution shift over speed/heading/position against the
//     vessel's own history, the unsupervised behavior-change blueprint
//     of Petry et al.;
//   - incremental stop/move episode extraction: every episode the
//     accumulator closes is zone-annotated and materialised into a
//     semstore.Store as it closes, instead of by offline batch
//     segmentation;
//   - continuous open-world CEP: reporting gaps are recognised the
//     moment the first sample after the silence arrives, and each
//     closed gap is matched against recent gaps of other vessels for
//     physically feasible covert meetings (events.PossibleRendezvous) —
//     the offline E13 sweep, folded into the stream.
//
// The stage set answers the engine's anomalies kind as a lane of the
// live source (Stages.Answer routes each vessel to its owning shard's
// stage), so one-shot HTTP, standing /v1/stream subscriptions,
// federation and tiering all read the same state — and the profile fold
// itself lives in internal/query, shared with the offline replay
// (query.DeriveAnomalies), so online and replayed reports are
// byte-identical. Everything is off-switchable: a nil ingest
// Config.Anomaly means no stage in the tee and zero cost.
package anomaly

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/stream"
	"repro/internal/tstore"
	"repro/internal/zones"
)

// retainedAlerts bounds the CEP alerts the stage set keeps for pull
// readers (oldest dropped first); push consumers get every alert
// through OnAlert regardless.
const retainedAlerts = 1024

// Config tunes what the stage DOES with the stream facts the fold
// surfaces — never the fold itself. Profile thresholds, bin layouts and
// the gap threshold are query package constants, so configuring a stage
// differently cannot break the online==offline equivalence the
// anomalies kind is pinned to. The zero value is usable: default
// open-world qualification, no zone annotation, no semantic
// materialisation.
type Config struct {
	// OpenWorld tunes the continuous possible-rendezvous qualification;
	// zero value = events.DefaultOpenWorldConfig().
	OpenWorld events.OpenWorldConfig
	// Zones annotates each incrementally closed episode (an anchored
	// stop inside a port becomes moored) before materialisation; nil
	// skips annotation. Annotation happens after the fold, so reports
	// stay zone-free either way.
	Zones *zones.ZoneSet
	// Semantic, when non-nil, receives every closed episode as linked
	// triples (semstore.MaterialiseEpisode) the moment it closes — the
	// continuous version of batch materialisation. The store locks
	// internally; it may be shared with readers.
	Semantic *semstore.Store
	// RecentGaps bounds the cross-vessel ring of closed reporting gaps
	// the rendezvous matcher pairs each fresh gap against (default 256).
	RecentGaps int
}

func (c Config) normalize() Config {
	if c.OpenWorld == (events.OpenWorldConfig{}) {
		c.OpenWorld = events.DefaultOpenWorldConfig()
	}
	if c.RecentGaps <= 0 {
		c.RecentGaps = 256
	}
	return c
}

// vesselProfile is one vessel's stage state: the shared fold plus the
// monotone index the next closed episode materialises under (batch
// materialisation numbers a vessel's episodes from zero; the online
// counter does the same, one episode at a time).
type vesselProfile struct {
	acc      *query.AnomalyAccumulator
	episodes int
}

// Stage is one shard's online anomaly stage. It implements tstore.Sink,
// so the ingest engine tees archived records into it; per-vessel state
// lives here, while episode materialisation and gap matching cross
// shards through the set's shared core.
type Stage struct {
	shared *shared

	mu      sync.Mutex
	vessels map[uint32]*vesselProfile

	appends  atomic.Int64
	appendNS *obs.Histogram // sampled (1/64); nil when uninstrumented
}

var _ tstore.Sink = (*Stage)(nil)

// closedEpisode pairs an episode the fold closed with its
// materialisation index, carried out of the stage lock.
type closedEpisode struct {
	ep  semstore.Episode
	idx int
}

// Append implements tstore.Sink: every archived record advances its
// vessel's behavior profile. It never fails — like the hub, a stage
// cannot refuse traffic. Closed episodes and gaps are collected under
// the stage lock but acted on (materialised, matched, alerted) after
// release, so the ingest hot path never blocks on the shared core.
func (s *Stage) Append(recs ...model.VesselState) error {
	if len(recs) == 0 {
		return nil
	}
	var t0 time.Time
	timed := s.appendNS != nil && s.appends.Add(1)&63 == 0
	if timed {
		t0 = time.Now()
	}
	var eps []closedEpisode
	var gaps []events.Gap
	s.mu.Lock()
	for i := range recs {
		rec := recs[i]
		v, ok := s.vessels[rec.MMSI]
		if !ok {
			v = &vesselProfile{acc: query.NewAnomalyAccumulator(rec.MMSI)}
			s.vessels[rec.MMSI] = v
		}
		ep, gap := v.acc.Observe(rec)
		if ep != nil {
			eps = append(eps, closedEpisode{ep: *ep, idx: v.episodes})
			v.episodes++
		}
		if gap != nil {
			gaps = append(gaps, *gap)
		}
	}
	s.mu.Unlock()
	if timed {
		s.appendNS.ObserveSince(t0)
	}
	for _, ce := range eps {
		s.shared.episodeClosed(ce.ep, ce.idx)
	}
	for _, g := range gaps {
		s.shared.gapClosed(g)
	}
	return nil
}

// VesselAnomaly renders one vessel's report (nil, false when unknown).
func (s *Stage) VesselAnomaly(mmsi uint32) (*query.VesselAnomaly, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vessels[mmsi]
	if !ok {
		return nil, false
	}
	va := v.acc.Report()
	return va, va != nil
}

// reports renders every vessel of this shard (order unspecified; the
// set sorts the merged answer).
func (s *Stage) reports() []query.VesselAnomaly {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]query.VesselAnomaly, 0, len(s.vessels))
	for _, v := range s.vessels {
		if va := v.acc.Report(); va != nil {
			out = append(out, *va)
		}
	}
	return out
}

// VesselCount returns the number of profiled vessels in this shard.
func (s *Stage) VesselCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vessels)
}

// shared is the cross-shard core of a stage set: episode
// materialisation and the continuous rendezvous matcher. Gaps of two
// vessels land on different shards, so pairing them has to cross the
// shard boundary; stages call in only after releasing their own lock
// (lock order: stage.mu strictly before shared.mu, never nested).
type shared struct {
	cfg     Config
	onAlert func(events.Alert) // set before traffic; nil = retain only

	episodes   atomic.Int64
	gaps       atomic.Int64
	rendezvous atomic.Int64

	mu     sync.Mutex
	recent []events.Gap // ring of the last RecentGaps closed gaps
	head   int
	alerts []events.Alert // ring of the last retainedAlerts CEP alerts
	ahead  int
}

// episodeClosed counts, annotates and (when configured) materialises
// one closed episode.
func (sh *shared) episodeClosed(e semstore.Episode, idx int) {
	sh.episodes.Add(1)
	if sh.cfg.Semantic == nil {
		return
	}
	semstore.Annotate(&e, sh.cfg.Zones)
	semstore.MaterialiseEpisode(sh.cfg.Semantic, e, idx)
}

// gapClosed matches one freshly closed gap against the recent gaps of
// every other vessel — the QualifyRendezvous pair sweep, restricted to
// pairs the new gap completes. The pair is ordered lower MMSI first and
// pruned by the same reachability heuristic, so a continuous run fires
// exactly the alerts the offline sweep finds.
func (sh *shared) gapClosed(g events.Gap) {
	sh.gaps.Add(1)
	var fired []events.Alert
	sh.mu.Lock()
	for _, h := range sh.recent {
		if h.MMSI == g.MMSI {
			continue
		}
		reach := sh.cfg.OpenWorld.MaxSpeedKn * geo.Knot *
			(g.Duration().Seconds() + h.Duration().Seconds()) / 2
		if geo.Distance(g.Before.Pos, h.Before.Pos) > reach {
			continue
		}
		a, b := h, g
		if g.MMSI < h.MMSI {
			a, b = g, h
		}
		if alert, ok := events.PossibleRendezvous(a, b, sh.cfg.OpenWorld); ok {
			fired = append(fired, alert)
		}
	}
	if len(sh.recent) < sh.cfg.RecentGaps {
		sh.recent = append(sh.recent, g)
	} else {
		sh.recent[sh.head] = g
		sh.head = (sh.head + 1) % len(sh.recent)
	}
	for _, a := range fired {
		if len(sh.alerts) < retainedAlerts {
			sh.alerts = append(sh.alerts, a)
		} else {
			sh.alerts[sh.ahead] = a
			sh.ahead = (sh.ahead + 1) % len(sh.alerts)
		}
	}
	sh.mu.Unlock()
	sh.rendezvous.Add(int64(len(fired)))
	if sh.onAlert != nil {
		for _, a := range fired {
			sh.onAlert(a)
		}
	}
}

// Stages is the sharded stage set: one Stage per ingest shard, vessels
// routed by the same hash the pipelines shard by, plus the shared
// materialisation/CEP core. It implements query.Answerer, so the
// engine's live source reads behavior profiles straight from it.
type Stages struct {
	stages []*Stage
	shared *shared
}

var _ query.Answerer = (*Stages)(nil)

// NewStages builds n stages (one per shard) over one shared core.
func NewStages(n int, cfg Config) *Stages {
	if n < 1 {
		n = 1
	}
	sh := &shared{cfg: cfg.normalize()}
	ss := &Stages{stages: make([]*Stage, n), shared: sh}
	for i := range ss.stages {
		ss.stages[i] = &Stage{shared: sh, vessels: make(map[uint32]*vesselProfile)}
	}
	return ss
}

// Len returns the shard count.
func (ss *Stages) Len() int { return len(ss.stages) }

// Stage returns shard i's stage (for tee attachment).
func (ss *Stages) Stage(i int) *Stage { return ss.stages[i] }

// ShardFor returns the stage owning a vessel.
func (ss *Stages) ShardFor(mmsi uint32) *Stage {
	return ss.stages[stream.ShardOf(uint64(mmsi), len(ss.stages))]
}

// OnAlert installs the CEP alert consumer (the ingest engine wires the
// hub's alert fan-out here). Set before the stages receive traffic; it
// is called outside every stage lock.
func (ss *Stages) OnAlert(fn func(events.Alert)) { ss.shared.onAlert = fn }

// Answer implements query.Answerer for the anomalies kind: the fleet
// ranking, or the owning shard's profile of one vessel. It declines
// other kinds and vessels the stage has not observed; the engine
// answers those by replay.
func (ss *Stages) Answer(req query.Request) (*query.Result, bool) {
	if req.Kind != query.KindAnomalies {
		return nil, false
	}
	rep := &query.AnomalyReport{}
	if req.MMSI == 0 {
		rep.Ranked, _ = ss.RankedAnomalies(req.Limit)
	} else if va, ok := ss.VesselAnomaly(req.MMSI); ok {
		rep.Vessel = va
	} else {
		return nil, false
	}
	return &query.Result{Kind: req.Kind, Payload: query.Payload{Anomalies: rep}}, true
}

// VesselAnomaly returns one vessel's report (nil, false when unknown).
func (ss *Stages) VesselAnomaly(mmsi uint32) (*query.VesselAnomaly, bool) {
	return ss.ShardFor(mmsi).VesselAnomaly(mmsi)
}

// RankedAnomalies returns every shard's reports merged, sorted
// score-descending (MMSI ascending on ties) and truncated to limit when
// limit > 0. A stage set always knows its fleet: ok is always true.
func (ss *Stages) RankedAnomalies(limit int) ([]query.VesselAnomaly, bool) {
	var out []query.VesselAnomaly
	for _, st := range ss.stages {
		out = append(out, st.reports()...)
	}
	query.SortRankedAnomalies(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, true
}

// VesselCount sums profiled vessels across stages.
func (ss *Stages) VesselCount() int {
	n := 0
	for _, st := range ss.stages {
		n += st.VesselCount()
	}
	return n
}

// EpisodeCount returns closed (kept) stop/move episodes so far.
func (ss *Stages) EpisodeCount() int64 { return ss.shared.episodes.Load() }

// GapCount returns reporting gaps recognised so far.
func (ss *Stages) GapCount() int64 { return ss.shared.gaps.Load() }

// RendezvousCount returns possible-rendezvous alerts fired so far.
func (ss *Stages) RendezvousCount() int64 { return ss.shared.rendezvous.Load() }

// RecentGaps returns the cross-vessel ring of closed reporting gaps,
// oldest first (at most Config.RecentGaps — raise it when scoring a
// whole run, as E21 does).
func (ss *Stages) RecentGaps() []events.Gap {
	sh := ss.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]events.Gap, 0, len(sh.recent))
	out = append(out, sh.recent[sh.head:]...)
	out = append(out, sh.recent[:sh.head]...)
	return out
}

// Alerts returns the retained CEP alerts, oldest first (at most the
// last retainedAlerts; push consumers via OnAlert see every alert).
func (ss *Stages) Alerts() []events.Alert {
	sh := ss.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]events.Alert, 0, len(sh.alerts))
	out = append(out, sh.alerts[sh.ahead:]...)
	out = append(out, sh.alerts[:sh.ahead]...)
	return out
}

// Instrument registers the stage-set series with reg: profiled-vessel
// gauge, episode/gap/rendezvous counters, sampled append cost, and the
// semantic-store triple gauge when materialisation is on.
func (ss *Stages) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("anomaly_vessels", func() float64 { return float64(ss.VesselCount()) })
	reg.CounterFunc("anomaly_episodes_total", func() float64 { return float64(ss.EpisodeCount()) })
	reg.CounterFunc("anomaly_gaps_total", func() float64 { return float64(ss.GapCount()) })
	reg.CounterFunc("anomaly_rendezvous_total", func() float64 { return float64(ss.RendezvousCount()) })
	if st := ss.shared.cfg.Semantic; st != nil {
		reg.GaugeFunc("anomaly_semantic_triples", func() float64 { return float64(st.Len()) })
	}
	appendNS := reg.Histogram("anomaly_append_ns")
	for _, st := range ss.stages {
		st.appendNS = appendNS
	}
}
