package query

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tstore"
	"repro/internal/va"
)

// Source is one store the engine can answer from. The three shipped
// implementations are NewLiveSource (the sharded in-process pipelines,
// fanned out per shard and merged), NewStoreSource (a recovered or
// loaded tstore archive) and Client (another daemon as a federation
// member — see federate.go); any future backend implements the same six
// reads and inherits the whole query surface. Implementations must be
// safe for concurrent use: the engine fans a multi-source read out to
// all sources at once.
//
// Contracts: Trajectory and SpaceTime return samples in [from, to]
// ordered by (MMSI, time); Nearest returns up to k distinct vessels
// each with a sample within tol of at, ordered by that sample's
// distance to p; Live returns at most one (the newest known) state per
// vessel inside r, ordered by MMSI; Alerts returns the recognised-event
// history (nil for sources that do not track events); DistinctMMSI
// returns the sorted identifiers of exactly the vessels a worldwide
// Live read would report — the cheap distinct-count read stats
// aggregation uses instead of fetching every source's live picture
// (nil on a degraded peer).
type Source interface {
	Name() string
	Trajectory(mmsi uint32, from, to time.Time) []model.VesselState
	SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState
	Nearest(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState
	Live(r geo.Rect) []model.VesselState
	Alerts() []events.Alert
	Stats() SourceStats
	DistinctMMSI() []uint32
}

// StatsSetSource is the optional combined read: Stats and DistinctMMSI
// answered in one exchange. Sources whose reads each cost a round trip
// implement it (Client does — one stats poll per peer instead of two);
// the engine falls back to the two Source calls otherwise.
type StatsSetSource interface {
	StatsWithMMSI() (SourceStats, []uint32)
}

// Engine executes Requests against one or more Sources, merging and
// deduplicating on (MMSI, timestamp) so a sample present both in a live
// shard and in the durable archive appears once. It is safe for
// concurrent use when its sources are (both shipped sources are).
type Engine struct {
	sources []Source
	reg     *obs.Registry // nil when uninstrumented
}

// NewEngine builds an engine over the given sources (at least one).
func NewEngine(sources ...Source) *Engine {
	return &Engine{sources: sources}
}

// Instrument points the engine at a metrics registry: every query then
// records per-kind end-to-end latency (query_latency_ns), per-source
// fan-out latency (query_source_ns) and request/error counts. Call
// before serving; the field is read without synchronisation.
func (e *Engine) Instrument(reg *obs.Registry) { e.reg = reg }

// Sources returns the source names in answer order.
func (e *Engine) Sources() []string {
	out := make([]string, len(e.sources))
	for i, s := range e.sources {
		out[i] = s.Name()
	}
	return out
}

// sourcesFor returns the sources a request is answered from: all of them
// normally, the non-peer ones when the request is marked Local — the
// federation loop guard (see PeerSource).
func (e *Engine) sourcesFor(req Request) []Source {
	if !req.Local {
		return e.sources
	}
	local := make([]Source, 0, len(e.sources))
	for _, s := range e.sources {
		if _, remote := s.(PeerSource); !remote {
			local = append(local, s)
		}
	}
	return local
}

// qobs carries the per-request observability hooks through the helper
// chain: the engine's registry (nil when uninstrumented) and the
// request's trace (nil when untraced). The zero value records nothing,
// so the uninstrumented path pays only nil checks.
type qobs struct {
	reg *obs.Registry
	tr  *obs.Trace
}

// span starts a named stage span; ending it is the returned func.
func (q qobs) span(name string) func() { return q.tr.StartSpan(name) }

// sourceStart begins the per-source measurement inside a gather
// goroutine: a query_source_ns sample and a "source:<name>" span.
func (q qobs) sourceStart(s Source) func() {
	if q.reg == nil && q.tr == nil {
		return func() {}
	}
	var h *obs.Histogram
	if q.reg != nil {
		h = q.reg.Histogram("query_source_ns", "source", s.Name())
	}
	end := q.tr.StartSpan("source:" + s.Name())
	t0 := time.Now()
	return func() {
		if h != nil {
			h.ObserveSince(t0)
		}
		end()
	}
}

// gather runs one read against every source concurrently and returns the
// per-source results in source order (so downstream merges stay
// deterministic). Sources are required to be safe for concurrent use
// already; fanning out bounds a multi-source query at its slowest source
// — with federation peers in the mix, a timing-out peer costs one
// PeerTimeout, not one per peer serially.
func gather[T any](q qobs, srcs []Source, read func(Source) T) []T {
	out := make([]T, len(srcs))
	if len(srcs) == 1 { // common case: no goroutine overhead
		done := q.sourceStart(srcs[0])
		out[0] = read(srcs[0])
		done()
		return out
	}
	var wg sync.WaitGroup
	for i, s := range srcs {
		wg.Add(1)
		go func(i int, s Source) {
			defer wg.Done()
			done := q.sourceStart(s)
			out[i] = read(s)
			done()
		}(i, s)
	}
	wg.Wait()
	return out
}

// Query validates and executes one request.
func (e *Engine) Query(req Request) (*Result, error) {
	return e.QueryContext(context.Background(), req)
}

// QueryContext validates and executes one request. A trace carried by
// ctx (obs.WithTrace) collects stage spans; setting req.Trace without
// one starts a fresh trace and returns its spans in Result.Trace.
func (e *Engine) QueryContext(ctx context.Context, req Request) (*Result, error) {
	if len(e.sources) == 0 {
		return nil, fmt.Errorf("query: engine has no sources")
	}
	if err := req.Validate(); err != nil {
		if e.reg != nil {
			e.reg.Counter("query_errors_total").Inc()
		}
		return nil, err
	}
	req = req.normalize()
	tr := obs.FromContext(ctx)
	if tr == nil && req.Trace {
		tr = obs.NewTrace()
	}
	q := qobs{reg: e.reg, tr: tr}
	t0 := time.Now()
	srcs := e.sourcesFor(req)
	if tr != nil {
		srcs = tracedSources(srcs, tr)
	}
	names := make([]string, len(srcs))
	for i, s := range srcs {
		names[i] = s.Name()
	}
	res := &Result{Kind: req.Kind, Sources: names}
	kindIndex[req.Kind].run(q, srcs, req, res)
	if e.reg != nil {
		e.reg.Counter("query_requests_total", "kind", string(req.Kind)).Inc()
		e.reg.Histogram("query_latency_ns", "kind", string(req.Kind)).ObserveSince(t0)
	}
	if req.Trace && tr != nil {
		for _, sp := range tr.Spans() {
			res.Trace = append(res.Trace, TraceSpan{
				Name: sp.Name, Parent: sp.Parent, StartNS: int64(sp.Start), DurNS: int64(sp.Dur),
			})
		}
		res.Trace = append(res.Trace, TraceSpan{Name: "total", DurNS: int64(time.Since(t0))})
	}
	return res, nil
}

// tracedSources substitutes trace-bound views for sources that forward
// trace context across a remote hop (federation clients), so a traced
// request comes back with one span tree covering every daemon it
// touched. The engine's own slice is never mutated.
func tracedSources(srcs []Source, tr *obs.Trace) []Source {
	out := srcs
	copied := false
	for i, s := range srcs {
		ts, ok := s.(traceSource)
		if !ok {
			continue
		}
		if !copied {
			out = make([]Source, len(srcs))
			copy(out, srcs)
			copied = true
		}
		out[i] = ts.withTrace(tr)
	}
	return out
}

func runTrajectory(q qobs, srcs []Source, req Request, res *Result) {
	from, to := req.timeRange()
	finishStates(q, req, res, flatten(gather(q, srcs, func(s Source) []model.VesselState {
		return s.Trajectory(req.MMSI, from, to)
	})))
}

func runSpaceTime(q qobs, srcs []Source, req Request, res *Result) {
	from, to := req.timeRange()
	finishStates(q, req, res, flatten(gather(q, srcs, func(s Source) []model.VesselState {
		return s.SpaceTime(req.Box.Rect(), from, to)
	})))
}

func runLive(q qobs, srcs []Source, req Request, res *Result) {
	encodeStates(req, res, livePicture(q, srcs, req.Box.Rect()))
}

// finishStates dedupes, orders, truncates and encodes a merged sample set.
func finishStates(q qobs, req Request, res *Result, merged []model.VesselState) {
	defer q.span("merge")()
	encodeStates(req, res, DedupeStates(merged))
}

// encodeStates counts, truncates and encodes an ordered sample set.
func encodeStates(req Request, res *Result, states []model.VesselState) {
	res.Count = len(states)
	for _, s := range truncateStates(states, req.Limit, res) {
		res.States = append(res.States, StateOf(s))
	}
}

// DedupeStates sorts samples by (MMSI, time) and removes (MMSI,
// timestamp) duplicates in place — the merge step between overlapping
// sources. Exported for tests and for callers composing their own reads.
func DedupeStates(states []model.VesselState) []model.VesselState {
	sort.Slice(states, func(i, j int) bool {
		if states[i].MMSI != states[j].MMSI {
			return states[i].MMSI < states[j].MMSI
		}
		return states[i].At.Before(states[j].At)
	})
	out := states[:0]
	for _, s := range states {
		if n := len(out); n > 0 && out[n-1].MMSI == s.MMSI && out[n-1].At.Equal(s.At) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// truncateStates applies the request limit, recording the cut.
func truncateStates(states []model.VesselState, limit int, res *Result) []model.VesselState {
	if limit > 0 && len(states) > limit {
		res.Truncated = true
		return states[:limit]
	}
	return states
}

// flatten concatenates per-source result lists in source order.
func flatten(lists [][]model.VesselState) []model.VesselState {
	if len(lists) == 1 {
		return lists[0]
	}
	var out []model.VesselState
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// runNearest merges per-source candidate lists: order every candidate by
// distance to the reference point, keep the nearest sample per vessel,
// take k.
func runNearest(q qobs, srcs []Source, req Request, res *Result) {
	p := geo.Point{Lat: req.Lat, Lon: req.Lon}
	cands := flatten(gather(q, srcs, func(s Source) []model.VesselState {
		return s.Nearest(p, req.At, time.Duration(req.Tol), req.K)
	}))
	defer q.span("merge")()
	sort.SliceStable(cands, func(i, j int) bool {
		return geo.Distance(p, cands[i].Pos) < geo.Distance(p, cands[j].Pos)
	})
	seen := make(map[uint32]bool, req.K)
	for _, c := range cands {
		if seen[c.MMSI] {
			continue
		}
		seen[c.MMSI] = true
		res.States = append(res.States, StateOf(c))
		if len(res.States) == req.K {
			break
		}
	}
	res.Count = len(res.States)
}

// livePicture merges the sources' current pictures, keeping the newest
// state per vessel (a live pipeline beats a stale archive), MMSI-ordered.
func livePicture(q qobs, srcs []Source, r geo.Rect) []model.VesselState {
	lists := gather(q, srcs, func(s Source) []model.VesselState { return s.Live(r) })
	defer q.span("merge")()
	newest := make(map[uint32]model.VesselState)
	for _, states := range lists {
		for _, st := range states {
			if prev, ok := newest[st.MMSI]; !ok || st.At.After(prev.At) {
				newest[st.MMSI] = st
			}
		}
	}
	out := make([]model.VesselState, 0, len(newest))
	for _, st := range newest {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
	return out
}

// runSituation assembles the merged operational picture: the
// deduplicated live states plus the merged alert board, aggregated
// exactly as core.Pipeline.Situation aggregates a single pipeline's.
func runSituation(q qobs, srcs []Source, req Request, res *Result) {
	bounds := req.Box.Rect()
	// Like stats: the two fan-outs run concurrently so a hanging peer
	// costs one timeout per situation, not two.
	var vessels []model.VesselState
	var merged []events.Alert
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		vessels = livePicture(q, srcs, bounds)
	}()
	go func() {
		defer wg.Done()
		merged = mergedAlerts(q, srcs)
	}()
	wg.Wait()
	defer q.span("assemble")()
	at := req.At
	if at.IsZero() {
		for _, v := range vessels {
			if v.At.After(at) {
				at = v.At
			}
		}
	}
	var alerts []va.SituationAlert
	for _, a := range merged {
		if a.Severity < req.MinSeverity {
			continue
		}
		alerts = append(alerts, va.SituationAlert{
			At: a.At, Kind: string(a.Kind), MMSI: a.MMSI,
			Where: a.Where, Severity: a.Severity, Note: a.Note,
		})
	}
	res.Situation = SituationOf(va.BuildSituation(at, bounds, vessels, alerts, req.Rows, req.Cols))
	res.Count = len(res.Situation.Vessels)
}

// runAlertHistory merges, filters and time-orders the sources' alerts.
func runAlertHistory(q qobs, srcs []Source, req Request, res *Result) {
	from, to := req.timeRange()
	merged := mergedAlerts(q, srcs)
	defer q.span("merge")()
	var kept []events.Alert
	for _, a := range merged {
		if a.Severity < req.MinSeverity || a.At.Before(from) || a.At.After(to) {
			continue
		}
		kept = append(kept, a)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].At.Before(kept[j].At) })
	res.Count = len(kept)
	if req.Limit > 0 && len(kept) > req.Limit {
		res.Truncated = true
		kept = kept[:req.Limit]
	}
	for _, a := range kept {
		res.Alerts = append(res.Alerts, AlertOf(a))
	}
}

// mergedAlerts concatenates the sources' alert histories, dropping exact
// duplicates (same kind, vessels and instant) from overlapping sources.
func mergedAlerts(q qobs, srcs []Source) []events.Alert {
	type key struct {
		kind        events.Kind
		mmsi, other uint32
		unixNano    int64
	}
	var out []events.Alert
	seen := make(map[key]bool)
	for _, alerts := range gather(q, srcs, func(s Source) []events.Alert { return s.Alerts() }) {
		for _, a := range alerts {
			k := key{kind: a.Kind, mmsi: a.MMSI, other: a.Other, unixNano: a.At.UnixNano()}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// --- derived kinds (trackintel.go and anomaly.go hold the types) --------------

// Answerer is the optional Source extension for the derived kinds —
// track, predict, quality and anomalies, whose answers are computed from
// a vessel's history rather than read out of it. A source that keeps
// that state (the live source, through its lanes) or can fetch it whole
// (a federation peer, in one exchange) answers directly; ok=false
// declines, and the engine replays the source's stored history through
// the same derivation instead, as it does for every source without the
// method. An ok answer is a non-nil Result the engine takes as
// authoritative even when its Payload is empty (an unknown vessel, a
// degraded peer), so a dead peer is never replayed.
type Answerer interface {
	Answer(req Request) (*Result, bool)
}

// derived builds the run step of a derived kind from its replay (one
// source's answer from its stored history) and its merge (overlapping
// sources' answers folded into res).
func derived(replay func(Source, Request) Payload, merge func([]Payload, Request, *Result)) func(qobs, []Source, Request, *Result) {
	return func(q qobs, srcs []Source, req Request, res *Result) {
		answers := gather(q, srcs, func(s Source) Payload {
			if a, ok := s.(Answerer); ok {
				if r, ok := a.Answer(req); ok {
					return r.Payload
				}
			}
			return replay(s, req)
		})
		defer q.span("merge")()
		merge(answers, req, res)
	}
}

// fullHistory reads a source's entire stored trajectory for one vessel
// (the derived kinds always score the whole known history).
func fullHistory(s Source, mmsi uint32) []model.VesselState {
	return s.Trajectory(mmsi, time.Time{}, time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC))
}

func replayTrack(s Source, req Request) Payload {
	return Payload{Track: DeriveTrack(req.MMSI, fullHistory(s, req.MMSI))}
}

func replayPredict(s Source, req Request) Payload {
	return Payload{Prediction: DerivePredict(req.MMSI, fullHistory(s, req.MMSI), time.Duration(req.Horizon))}
}

func replayQuality(s Source, req Request) Payload {
	return Payload{Quality: DeriveQuality(req.MMSI, fullHistory(s, req.MMSI))}
}

func replayAnomalies(s Source, req Request) Payload {
	if req.MMSI == 0 {
		return Payload{Anomalies: &AnomalyReport{Ranked: DeriveRankedAnomalies(s, req.Limit)}}
	}
	if va := DeriveAnomalies(req.MMSI, fullHistory(s, req.MMSI)); va != nil {
		return Payload{Anomalies: &AnomalyReport{Vessel: va}}
	}
	return Payload{}
}

// fresher orders overlapping sources' answers about one vessel: the
// later instant wins, then the deeper history.
func fresher(at time.Time, depth int, thanAt time.Time, thanDepth int) bool {
	return at.After(thanAt) || at.Equal(thanAt) && depth > thanDepth
}

// freshness is the per-vessel answer's (instant, depth) for fresher;
// ok=false marks a payload without a per-vessel answer.
func (p Payload) freshness() (at time.Time, depth int, ok bool) {
	switch {
	case p.Track != nil:
		return p.Track.At, 0, true
	case p.Prediction != nil:
		return p.Prediction.From, 0, true
	case p.Quality != nil:
		return time.Time{}, p.Quality.Checked, true
	case p.Anomalies != nil && p.Anomalies.Vessel != nil:
		return p.Anomalies.Vessel.At, p.Anomalies.Vessel.Samples, true
	}
	return time.Time{}, 0, false
}

// mergeFreshest keeps the freshest per-vessel answer (the earlier source
// on ties, so merged answers are deterministic).
func mergeFreshest(answers []Payload, _ Request, res *Result) {
	var bestAt time.Time
	bestDepth := 0
	for _, p := range answers {
		at, depth, ok := p.freshness()
		if ok && (res.Count == 0 || fresher(at, depth, bestAt, bestDepth)) {
			res.Payload, res.Count, bestAt, bestDepth = p, 1, at, depth
		}
	}
}

// mergeAnomalies merges the per-vessel form like every per-vessel kind,
// and the ranked form one entry per vessel (the fresher answer wins,
// earlier source on ties), re-sorted by score and truncated to limit.
func mergeAnomalies(answers []Payload, req Request, res *Result) {
	if req.MMSI != 0 {
		mergeFreshest(answers, req, res)
		return
	}
	best := make(map[uint32]VesselAnomaly)
	for _, p := range answers {
		if p.Anomalies == nil {
			continue
		}
		for _, va := range p.Anomalies.Ranked {
			if prev, ok := best[va.MMSI]; !ok || fresher(va.At, va.Samples, prev.At, prev.Samples) {
				best[va.MMSI] = va
			}
		}
	}
	out := make([]VesselAnomaly, 0, len(best))
	for _, va := range best {
		out = append(out, va)
	}
	SortRankedAnomalies(out)
	if req.Limit > 0 && len(out) > req.Limit {
		res.Truncated = true
		out = out[:req.Limit]
	}
	res.Anomalies = &AnomalyReport{Ranked: out}
	res.Count = len(out)
}

// runStats aggregates per-source statistics. Vessels and Live are distinct
// counts and therefore computed from merged per-source identifier sets,
// not summed — DistinctMMSI moves one sorted uint32 list per source, so
// a stats poll against an N-vessel federation peer costs O(N) integers
// instead of the N full states the worldwide live picture used to
// fetch. Exactness of the headline counts is unchanged (and stays
// test-pinned): every shipped source reports exactly the vessels its
// worldwide Live read would.
func runStats(q qobs, srcs []Source, req Request, res *Result) {
	st := &Stats{}
	withSets := req.MMSIs
	// One combined fan-out: a source implementing StatsWithMMSI (peers
	// do) answers both reads in one exchange, everything else pays two
	// cheap local calls — and a hanging peer still costs one timeout per
	// stats query.
	type combined struct {
		ss  SourceStats
		set []uint32
	}
	list := gather(q, srcs, func(s Source) combined {
		if c, ok := s.(StatsSetSource); ok {
			ss, set := c.StatsWithMMSI()
			return combined{ss: ss, set: set}
		}
		return combined{ss: s.Stats(), set: s.DistinctMMSI()}
	})
	defer q.span("merge")()
	union := make(map[uint32]bool)
	for _, c := range list {
		ss := c.ss
		if withSets {
			ss.MMSIs = c.set
		}
		st.Sources = append(st.Sources, ss)
		st.Points += ss.Points
		st.Alerts += ss.Alerts
		for _, m := range c.set {
			union[m] = true
		}
	}
	st.Vessels = len(union)
	st.Live = len(union)
	if withSets {
		st.MMSIs = make([]uint32, 0, len(union))
		for m := range union {
			st.MMSIs = append(st.MMSIs, m)
		}
		sort.Slice(st.MMSIs, func(i, j int) bool { return st.MMSIs[i] < st.MMSIs[j] })
	}
	res.Stats, res.Count = st, st.Points
}

// --- live source (core.Sharded fan-out) -----------------------------------------

// liveSource answers from the running sharded pipelines: per-vessel
// reads route to the owning shard, set reads fan out across every
// shard's consistent view and merge.
type liveSource struct {
	sharded *core.Sharded
	snaps   []*snapshotCache
	lanes   []Answerer
}

// NewLiveSource builds a Source over the sharded pipelines (the
// in-process live picture plus each shard's in-memory archive). Nearest
// queries build per-shard spatial snapshots, cached until the shard's
// archive grows. lanes are the online per-vessel stage sets behind the
// shards (the ingest tee's track and anomaly stages): the derived kinds
// answer from the first lane that knows the vessel, and from a replay
// of the owning shard's store where none does (lane disabled, or
// history preloaded before the lane started observing the feed).
func NewLiveSource(s *core.Sharded, lanes ...Answerer) Source {
	src := &liveSource{sharded: s, lanes: lanes}
	for _, p := range s.Shards {
		src.snaps = append(src.snaps, &snapshotCache{store: p.Store})
	}
	return src
}

// Answer implements Answerer by asking the lanes; it declines when none
// knows the answer, so the engine replays the shard store (which pages
// back evicted history, keeping the replay exact under tiering).
func (l *liveSource) Answer(req Request) (*Result, bool) {
	for _, lane := range l.lanes {
		if res, ok := lane.Answer(req); ok {
			return res, true
		}
	}
	return nil, false
}

func (l *liveSource) Name() string { return "live" }

func (l *liveSource) Trajectory(mmsi uint32, from, to time.Time) []model.VesselState {
	return l.sharded.ShardFor(mmsi).Store.TimeRange(mmsi, from, to)
}

func (l *liveSource) SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	var out []model.VesselState
	for _, p := range l.sharded.Shards {
		out = append(out, p.Store.SpaceTime(r, from, to)...)
	}
	// Shards partition the fleet, so per-shard (MMSI, time) order merges
	// into global order by a plain sort without ties to break.
	sort.Slice(out, func(i, j int) bool {
		if out[i].MMSI != out[j].MMSI {
			return out[i].MMSI < out[j].MMSI
		}
		return out[i].At.Before(out[j].At)
	})
	return out
}

func (l *liveSource) Nearest(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	var cands []model.VesselState
	for _, sc := range l.snaps {
		cands = append(cands, sc.get().NearestVessels(p, at, tol, k)...)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return geo.Distance(p, cands[i].Pos) < geo.Distance(p, cands[j].Pos)
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

func (l *liveSource) Live(r geo.Rect) []model.VesselState {
	var out []model.VesselState
	for _, p := range l.sharded.Shards {
		out = append(out, p.Live.InRect(r)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
	return out
}

func (l *liveSource) Alerts() []events.Alert { return l.sharded.Alerts() }

func (l *liveSource) Stats() SourceStats {
	st := SourceStats{Name: l.Name()}
	resident, evicted := 0, 0
	for _, p := range l.sharded.Shards {
		st.Points += p.Store.Len()
		st.Vessels += p.Store.VesselCount() // shards partition the fleet: no double count
		st.Live += p.Live.Count()
		tc := p.Store.Tier()
		resident += tc.ResidentPoints
		evicted += tc.EvictedPoints
		st.EvictedVessels += tc.EvictedVessels
	}
	if evicted > 0 { // fully resident sources report bytes-identically to pre-tiering
		st.ResidentPoints = resident
	}
	st.Alerts = len(l.sharded.Alerts())
	return st
}

func (l *liveSource) DistinctMMSI() []uint32 {
	var out []uint32
	for _, p := range l.sharded.Shards {
		out = append(out, p.Live.MMSIs()...) // shards partition the fleet: no duplicates
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- archive source (tstore.Store) ----------------------------------------------

// storeSource answers from a trajectory archive — typically one
// recovered by store.OpenReadOnly or loaded from a snapshot file. The
// "live picture" of an archive is each vessel's newest persisted state.
type storeSource struct {
	name  string
	store *tstore.Store
	snap  snapshotCache
}

// NewStoreSource builds a Source over a trajectory archive. The name
// labels it in Result.Sources ("archive" when empty).
func NewStoreSource(name string, st *tstore.Store) Source {
	if name == "" {
		name = "archive"
	}
	return &storeSource{name: name, store: st, snap: snapshotCache{store: st}}
}

func (a *storeSource) Name() string { return a.name }

func (a *storeSource) Trajectory(mmsi uint32, from, to time.Time) []model.VesselState {
	return a.store.TimeRange(mmsi, from, to)
}

func (a *storeSource) SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	return a.store.SpaceTime(r, from, to)
}

func (a *storeSource) Nearest(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	return a.snap.get().NearestVessels(p, at, tol, k)
}

func (a *storeSource) Live(r geo.Rect) []model.VesselState {
	latest := a.store.LatestStates() // O(vessels), already MMSI-ordered
	out := latest[:0]
	for _, s := range latest {
		if r.Contains(s.Pos) {
			out = append(out, s)
		}
	}
	return out
}

func (a *storeSource) Alerts() []events.Alert { return nil }

func (a *storeSource) Stats() SourceStats {
	ss := SourceStats{
		Name: a.name, Points: a.store.Len(), Vessels: a.store.VesselCount(),
	}
	tc := a.store.Tier()
	if tc.EvictedPoints > 0 {
		ss.ResidentPoints = tc.ResidentPoints
		ss.EvictedVessels = tc.EvictedVessels
	}
	return ss
}

func (a *storeSource) DistinctMMSI() []uint32 { return a.store.MMSIs() }

// snapshotCache lazily builds a store's spatial snapshot and reuses it
// until the store grows — archives are static after recovery, so their
// snapshot builds once; live shard stores rebuild only when queried
// after new appends.
type snapshotCache struct {
	store *tstore.Store

	mu    sync.Mutex
	built *tstore.Snapshot
	atLen int
}

func (c *snapshotCache) get() *tstore.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.store.Len(); c.built == nil || n != c.atLen {
		c.built = c.store.SpatialSnapshot()
		c.atLen = n
	}
	return c.built
}
