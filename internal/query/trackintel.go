// Track intelligence: the three per-vessel inference kinds — track
// (fused state + covariance ellipse), predict (position at t+Δ with a
// confidence envelope) and quality (data-integrity score) — and the
// deterministic replay that answers them from any Source.
//
// A Source that maintains live fused state (the live source through the
// ingest engine's internal/track lane, a federation peer) answers them
// directly through Answerer; every other source is answered by replaying
// its stored trajectory through the same fusion/forecast/quality
// libraries the online lane runs (DeriveTrack / DerivePredict /
// DeriveQuality).
// The replay is a pure function of the point sequence — no wall clock,
// no randomness — so a tiered store that evicted and paged a vessel
// back answers byte-identically to one that never evicted it (pinned by
// TestQueryEquivalenceUnderEviction).
package query

import (
	"math"
	"time"

	"repro/internal/forecast"
	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/uncertainty"
)

// Track-intelligence tuning shared by the online stage and the offline
// replay: both must feed the libraries identically or the equivalence
// tests (online==replay, evicted==resident) break.
const (
	// MaxPredictHorizon bounds Request.Horizon: beyond a day, neither the
	// route prior nor dead reckoning says anything defensible.
	MaxPredictHorizon = 24 * time.Hour
	// AISPositionSigmaM is the 1-sigma position noise assumed for AIS
	// fixes (GPS-grade; forecast.Kalman's replay uses the same figure).
	AISPositionSigmaM = 15.0
	// RouteCellDeg is the route-model grid cell size (≈5.5 km).
	RouteCellDeg = 0.05
	// predictConfWindow bounds the filter replay behind a prediction's
	// confidence envelope to the recent past, mirroring forecast.Kalman.
	predictConfWindow = 30 * time.Minute
)

// TrackState is the wire form of one vessel's fused track: the smoothed
// position/velocity estimate of a constant-velocity Kalman filter and
// its position-covariance error ellipse (1-sigma semi-axes; OrientDeg is
// the bearing of the major axis, degrees clockwise from north).
type TrackState struct {
	MMSI      uint32    `json:"mmsi"`
	At        time.Time `json:"at"`
	Lat       float64   `json:"lat"`
	Lon       float64   `json:"lon"`
	SpeedKn   float64   `json:"speed_kn"`
	CourseDeg float64   `json:"course_deg"`

	// SigmaM is the scalar position uncertainty (RMS of the ellipse axes).
	SigmaM    float64 `json:"sigma_m"`
	MajorM    float64 `json:"major_m"`
	MinorM    float64 `json:"minor_m"`
	OrientDeg float64 `json:"orient_deg"`

	Hits      int  `json:"hits"`
	Misses    int  `json:"misses"`
	Confirmed bool `json:"confirmed"`
	// Sources counts measurements per producing sensor ("ais", "radar").
	Sources map[string]int `json:"sources,omitempty"`
}

// Prediction is the wire form of a position forecast: where the vessel
// is expected At (= From + Horizon), by which predictor ("route-model"
// when the learned lane prior answered, "dead-reckoning" otherwise),
// with a 1-sigma confidence envelope radius in metres.
type Prediction struct {
	MMSI    uint32    `json:"mmsi"`
	From    time.Time `json:"from"`
	At      time.Time `json:"at"`
	Horizon Duration  `json:"horizon"`
	Lat     float64   `json:"lat"`
	Lon     float64   `json:"lon"`
	Method  string    `json:"method"`
	// ConfidenceM is the 1-sigma position uncertainty a constant-velocity
	// filter reaches when coasted (no measurements) over the horizon.
	ConfidenceM float64 `json:"confidence_m"`
}

// QualityScore is the wire form of one vessel's data-integrity profile:
// a Beta-Bernoulli reliability estimate over its checked messages
// (mean and conservative 2-sigma lower bound) with per-rule issue
// counts from the kinematic checks.
type QualityScore struct {
	MMSI        uint32  `json:"mmsi"`
	Reliability float64 `json:"reliability"`
	LowerBound  float64 `json:"lower_bound"`
	Checked     int     `json:"checked"`
	Flagged     int     `json:"flagged"`
	// Issues counts flagged messages per rule ("teleport", "sog-mismatch",
	// "time-regression").
	Issues map[string]int `json:"issues,omitempty"`
}

// AISMeasurement converts one AIS state sample into the fusion
// measurement the tracker consumes — the single conversion both the
// online stage and the offline replay use.
func AISMeasurement(p model.VesselState) fusion.Measurement {
	return fusion.Measurement{
		At: p.At, Pos: p.Pos, SigmaM: AISPositionSigmaM,
		Identity: p.MMSI, Source: "ais",
	}
}

// TrackStateOf renders a fused track into its wire form. The error
// ellipse is the eigendecomposition of the filter's 2×2 position
// covariance block; axes are 1-sigma, orientation is the bearing of the
// major axis.
func TrackStateOf(tr *fusion.Track) *TrackState {
	f := tr.Filter
	pos := f.Position()
	v := f.Velocity()
	// Position covariance block in the local EN plane: x = east, y = north.
	a, b, c := f.P[0], (f.P[1]+f.P[4])/2, f.P[5]
	mid := (a + c) / 2
	disc := math.Sqrt(((a-c)/2)*((a-c)/2) + b*b)
	l1, l2 := math.Max(mid+disc, 0), math.Max(mid-disc, 0)
	// Major-axis eigenvector angle from east, converted to a bearing.
	theta := 0.5 * math.Atan2(2*b, a-c)
	out := &TrackState{
		MMSI: tr.Identity, At: tr.LastSeen,
		Lat: pos.Lat, Lon: pos.Lon,
		SpeedKn: v.SpeedMS / geo.Knot, CourseDeg: v.CourseDg,
		SigmaM: f.PositionUncertaintyM(),
		MajorM: math.Sqrt(l1), MinorM: math.Sqrt(l2),
		OrientDeg: geo.NormalizeBearing(90 - theta*180/math.Pi),
		Hits:      tr.Hits, Misses: tr.Misses, Confirmed: tr.Confirmed,
	}
	if len(tr.Sources) > 0 {
		out.Sources = make(map[string]int, len(tr.Sources))
		for k, n := range tr.Sources {
			out.Sources[k] = n
		}
	}
	return out
}

// DeriveTrack replays a vessel's stored samples (time-ordered) through a
// fresh fusion.Tracker and returns the resulting track state — the
// offline equivalent of the online stage's AIS path (identity-bound
// measurements always reach their track, so gaps in the history never
// lose state, online or offline). Nil when the history is empty.
func DeriveTrack(mmsi uint32, pts []model.VesselState) *TrackState {
	if len(pts) == 0 {
		return nil
	}
	tk := fusion.NewTracker(fusion.DefaultTrackerConfig())
	for _, p := range pts {
		tk.Process(p.At, []fusion.Measurement{AISMeasurement(p)})
	}
	for _, tr := range tk.Tracks {
		if tr.Identity == mmsi {
			return TrackStateOf(tr)
		}
	}
	return nil
}

// PredictFrom forecasts from a vessel's samples (time-ordered) using a
// route prior with dead-reckoning fallback (forecast.Hybrid's policy,
// inlined so the answering predictor is named in the result). route may
// be nil — pure dead reckoning. Nil when the history is empty.
func PredictFrom(mmsi uint32, pts []model.VesselState, horizon time.Duration, route *forecast.RouteModel) *Prediction {
	if len(pts) == 0 {
		return nil
	}
	tr := &model.Trajectory{MMSI: mmsi, Points: pts}
	last := pts[len(pts)-1]
	var (
		pos    geo.Point
		ok     bool
		method string
	)
	if route != nil {
		if p, hit := route.Predict(tr, horizon); hit {
			pos, ok, method = p, true, route.Name()
		}
	}
	if !ok {
		if pos, ok = (forecast.DeadReckoning{}).Predict(tr, horizon); !ok {
			return nil
		}
		method = forecast.DeadReckoning{}.Name()
	}
	return &Prediction{
		MMSI: mmsi, From: last.At, At: last.At.Add(horizon),
		Horizon: Duration(horizon), Lat: pos.Lat, Lon: pos.Lon,
		Method: method, ConfidenceM: coastedUncertaintyM(pts, horizon),
	}
}

// coastedUncertaintyM replays a constant-velocity filter over the recent
// window and coasts it over the horizon: the 1-sigma envelope a
// measurement-starved tracker would report at the target instant.
func coastedUncertaintyM(pts []model.VesselState, horizon time.Duration) float64 {
	last := pts[len(pts)-1]
	start := last.At.Add(-predictConfWindow)
	var k *fusion.KalmanCV
	for _, p := range pts {
		if p.At.Before(start) {
			continue
		}
		if k == nil {
			k = fusion.NewKalmanCV(p.Pos, fusion.DefaultTrackerConfig().ProcessNoise)
			k.Init(p.At, p.Pos, AISPositionSigmaM)
			continue
		}
		k.Predict(p.At)
		k.Update(p.Pos, AISPositionSigmaM)
	}
	k.Predict(last.At.Add(horizon))
	return k.PositionUncertaintyM()
}

// DerivePredict forecasts from a vessel's stored samples alone: a route
// model trained on that single trajectory (the vessel's own habit),
// dead reckoning where it abstains. The online stage is richer — its
// shard-shared route model has seen every vessel's lanes.
func DerivePredict(mmsi uint32, pts []model.VesselState, horizon time.Duration) *Prediction {
	if len(pts) == 0 {
		return nil
	}
	rm := forecast.NewRouteModel(RouteCellDeg)
	rm.Train(&model.Trajectory{MMSI: mmsi, Points: pts})
	return PredictFrom(mmsi, pts, horizon, rm)
}

// QualityAccumulator folds one vessel's sample stream into an integrity
// score: each sample runs the kinematic checks and lands as a clean or
// flagged observation in a Beta-Bernoulli reliability estimate (the
// same prior and update core.Pipeline's quality.Profile applies per
// vessel, held inline here — the online stage pays this per archived
// record, so the fold must not hash a subject key every sample). The
// online stage keeps one per vessel; DeriveQuality replays a stored
// history through one — the same fold either way, so online and
// replayed scores agree exactly.
type QualityAccumulator struct {
	mmsi    uint32
	kc      quality.KinematicChecker
	beta    uncertainty.Beta
	checked int
	flagged int
	issues  map[string]int
}

// NewQualityAccumulator returns an empty accumulator for one vessel.
func NewQualityAccumulator(mmsi uint32) *QualityAccumulator {
	return &QualityAccumulator{
		mmsi: mmsi,
		// The score keeps rule counts, not prose, so skip note formatting —
		// on a defect-heavy feed the Sprintf would otherwise dominate the
		// online stage's per-record cost.
		kc:   quality.KinematicChecker{SkipNotes: true},
		beta: uncertainty.NewBeta(),
	}
}

// Observe folds in the vessel's next sample (time order, like the feed).
func (q *QualityAccumulator) Observe(s model.VesselState) {
	issues := q.kc.Check(s)
	q.checked++
	if len(issues) > 0 {
		q.flagged++
		if q.issues == nil {
			q.issues = make(map[string]int)
		}
		for _, is := range issues {
			q.issues[is.Rule]++
		}
		q.beta = q.beta.Observe(0, 1)
	} else {
		q.beta = q.beta.Observe(1, 0)
	}
}

// Score renders the accumulated profile; nil before any observation.
func (q *QualityAccumulator) Score() *QualityScore {
	if q.checked == 0 {
		return nil
	}
	mean, lower := q.beta.Mean(), q.beta.LowerBound(2)
	s := &QualityScore{
		MMSI: q.mmsi, Reliability: mean, LowerBound: lower,
		Checked: q.checked, Flagged: q.flagged,
	}
	if len(q.issues) > 0 {
		s.Issues = make(map[string]int, len(q.issues))
		for k, n := range q.issues {
			s.Issues[k] = n
		}
	}
	return s
}

// DeriveQuality replays a vessel's stored samples through the kinematic
// checks and Beta-Bernoulli profile. Nil when the history is empty.
func DeriveQuality(mmsi uint32, pts []model.VesselState) *QualityScore {
	if len(pts) == 0 {
		return nil
	}
	acc := NewQualityAccumulator(mmsi)
	for _, p := range pts {
		acc.Observe(p)
	}
	return acc.Score()
}
