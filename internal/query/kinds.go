package query

import (
	"fmt"
	"time"
)

// kindSpec is everything the read surface knows about one request kind:
// the fields a request must carry, its defaults, its GET parameters, how
// the engine fans it out and merges it, and how it streams. Validate,
// normalize, Engine.QueryContext, Hub.Subscribe, Streamer.Subscribe, the
// GET routes and Kinds all read kindTable; none of them switches on
// Kind, so a new analysis is one entry here plus whatever answers it.
type kindSpec struct {
	kind Kind
	// params are the GET parameters of /v1/<kind>, parsed in this order
	// (getParams in http.go).
	params []string
	// check rejects a request missing a field the kind requires; nil
	// when nothing is required.
	check func(Request) error
	// defaults fills the kind's unset optional fields (after check).
	defaults func(Request) Request
	// run fans a normalized request out to the sources and merges their
	// answers into res (engine.go).
	run func(q qobs, srcs []Source, req Request, res *Result)
	// filter, when set, streams the kind through the hub: it builds the
	// standing query's predicate over published updates (sub.go).
	filter func(req Request) func(*Update) bool
	// ticker streams the kind by recomputing it through an executor on a
	// cadence; each tick pushes the answer's Payload.
	ticker bool
}

// kindTable lists every request kind in Kinds order.
var kindTable = []kindSpec{
	{kind: KindTrajectory, params: []string{"mmsi", "from", "to", "limit"},
		check: requireMMSI, run: runTrajectory, filter: followFilter},
	{kind: KindSpaceTime, params: []string{"box", "from", "to", "limit"},
		check: requireBox, run: runSpaceTime, filter: boxWatchFilter},
	{kind: KindNearest, params: []string{"point", "at", "tol", "k"},
		check: checkNearest, defaults: nearestDefaults, run: runNearest},
	{kind: KindLivePicture, params: []string{"box", "limit"},
		check: requireBox, run: runLive, filter: liveFilter},
	{kind: KindSituation, params: []string{"box", "rows", "cols", "severity"},
		check: requireBox, defaults: situationDefaults, run: runSituation, ticker: true},
	{kind: KindAlertHistory, params: []string{"from", "to", "severity", "limit"},
		run: runAlertHistory, filter: alertFilter},
	{kind: KindStats, run: runStats},
	{kind: KindTrack, params: []string{"mmsi"},
		check: requireMMSI, run: derived(replayTrack, mergeFreshest), ticker: true},
	{kind: KindPredict, params: []string{"mmsi", "horizon"},
		check: checkPredict, run: derived(replayPredict, mergeFreshest), ticker: true},
	{kind: KindQuality, params: []string{"mmsi"},
		check: requireMMSI, run: derived(replayQuality, mergeFreshest), ticker: true},
	// MMSI is optional: set, the per-vessel report; unset, the fleet
	// ranking (Limit-capped).
	{kind: KindAnomalies, params: []string{"mmsi", "limit"},
		defaults: anomalyDefaults, run: derived(replayAnomalies, mergeAnomalies), ticker: true},
}

// kindIndex resolves a kind to its table entry.
var kindIndex = func() map[Kind]*kindSpec {
	m := make(map[Kind]*kindSpec, len(kindTable))
	for i := range kindTable {
		m[kindTable[i].kind] = &kindTable[i]
	}
	return m
}()

// kindsWhere lists the kinds whose entry satisfies pred, in table order.
func kindsWhere(pred func(*kindSpec) bool) []Kind {
	var out []Kind
	for i := range kindTable {
		if pred(&kindTable[i]) {
			out = append(out, kindTable[i].kind)
		}
	}
	return out
}

// Validate checks that the request names a known kind and carries the
// fields that kind requires, with every bound in range.
func (r Request) Validate() error {
	spec := kindIndex[r.Kind]
	switch {
	case r.Kind == "":
		return fmt.Errorf("query: missing kind (one of %v)", Kinds())
	case spec == nil:
		return fmt.Errorf("query: unknown kind %q (one of %v)", r.Kind, Kinds())
	}
	if spec.check != nil {
		if err := spec.check(r); err != nil {
			return err
		}
	}
	if r.Box != nil {
		if err := r.Box.Validate(); err != nil {
			return err
		}
	}
	if !r.From.IsZero() && !r.To.IsZero() && r.To.Before(r.From) {
		return fmt.Errorf("query: to %s precedes from %s", r.To.Format(time.RFC3339), r.From.Format(time.RFC3339))
	}
	if r.Limit < 0 {
		return fmt.Errorf("query: negative limit %d", r.Limit)
	}
	return nil
}

// normalize fills kind-specific defaults; called after Validate.
func (r Request) normalize() Request {
	if spec := kindIndex[r.Kind]; spec != nil && spec.defaults != nil {
		return spec.defaults(r)
	}
	return r
}

func requireMMSI(r Request) error {
	if r.MMSI == 0 {
		return fmt.Errorf("query: %s requires mmsi", r.Kind)
	}
	return nil
}

func requireBox(r Request) error {
	if r.Box == nil {
		return fmt.Errorf("query: %s requires box", r.Kind)
	}
	return nil
}

// checkNearest bounds the reference point and k. (0,0) is a legitimate
// reference point (Gulf of Guinea), so an omitted point is
// indistinguishable from it here; the GET route and the CLI require the
// point explicitly.
func checkNearest(r Request) error {
	if r.Lat < -90 || r.Lat > 90 || r.Lon < -180 || r.Lon > 180 {
		return fmt.Errorf("query: nearest point out of range: %g,%g", r.Lat, r.Lon)
	}
	if r.K < 0 {
		return fmt.Errorf("query: nearest k must be positive, got %d", r.K)
	}
	return nil
}

func checkPredict(r Request) error {
	if err := requireMMSI(r); err != nil {
		return err
	}
	if r.Horizon <= 0 {
		return fmt.Errorf("query: predict requires a positive horizon")
	}
	if time.Duration(r.Horizon) > MaxPredictHorizon {
		return fmt.Errorf("query: predict horizon %s exceeds %s",
			time.Duration(r.Horizon), MaxPredictHorizon)
	}
	return nil
}

func nearestDefaults(r Request) Request {
	if r.K <= 0 {
		r.K = 5
	}
	if r.Tol <= 0 {
		if r.At.IsZero() {
			// No reference instant: time-agnostic nearest (any sample
			// qualifies; time.Time.Sub saturates, so the max-duration
			// tolerance admits every dt).
			r.Tol = Duration(1<<63 - 1)
		} else {
			r.Tol = Duration(30 * time.Minute)
		}
	}
	return r
}

func situationDefaults(r Request) Request {
	if r.Rows <= 0 {
		r.Rows = 12
	}
	if r.Cols <= 0 {
		r.Cols = 48
	}
	return r
}

func anomalyDefaults(r Request) Request {
	if r.MMSI == 0 && r.Limit <= 0 {
		r.Limit = DefaultAnomalyLimit
	}
	return r
}
