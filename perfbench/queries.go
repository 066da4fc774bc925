package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
)

// queryGen draws the seeded query mix. Each request is anchored on one
// position report of the feed: its vessel, time and place.
type queryGen struct {
	rng  *rand.Rand
	f    *feed
	deck []deal // one cycle of the mix, reshuffled per cycle
	next int

	// recent > 0 anchors on one of the recent newest fed positions
	// (live-ops); otherwise anchors are historical.
	recent int
	// Zipf skew (cold-archive): a vessel rank and a window rank, each
	// over a seeded permutation that is reshuffled every hotSetQueries
	// requests — the operators' attention drifts, and a run averages
	// over several hot sets instead of resting on one.
	zipfVessel, zipfWindow *rand.Zipf
	vesselPerm             []uint32
	windowPerm             []int
	drawn                  int
}

const hotSetQueries = 300

const windowBucket = time.Minute

func newQueryGen(seed int64, f *feed, w *workloadSpec) *queryGen {
	g := &queryGen{rng: rand.New(rand.NewSource(seed)), f: f, recent: w.RecentPositions}
	copies := max(w.httpEvery(), 1)
	for _, s := range shapes() {
		for c := 0; c < copies; c++ {
			for i := 0; i < w.QueryMix[string(s)]; i++ {
				g.deck = append(g.deck, deal{shape: s, viaHTTP: c == 0 && w.httpEvery() > 0})
			}
		}
	}
	if w.ZipfS > 1 {
		g.vesselPerm = append([]uint32(nil), f.mmsis...)
		g.windowPerm = make([]int, int(f.end.Sub(f.start)/windowBucket)+1)
		for i := range g.windowPerm {
			g.windowPerm[i] = i
		}
		g.zipfVessel = rand.NewZipf(g.rng, w.ZipfS, 1, uint64(len(g.vesselPerm)-1))
		g.zipfWindow = rand.NewZipf(g.rng, w.ZipfS, 1, uint64(len(g.windowPerm)-1))
	}
	return g
}

// newHotSet reshuffles which vessels and windows the Zipf ranks name.
func (g *queryGen) newHotSet() {
	g.rng.Shuffle(len(g.vesselPerm), func(i, j int) { g.vesselPerm[i], g.vesselPerm[j] = g.vesselPerm[j], g.vesselPerm[i] })
	g.rng.Shuffle(len(g.windowPerm), func(i, j int) { g.windowPerm[i], g.windowPerm[j] = g.windowPerm[j], g.windowPerm[i] })
}

// shape is one request shape of the mix: a query kind, except that the
// anomalies kind comes in two shapes, the per-vessel report and the
// fleet ranking, whose costs differ by orders of magnitude.
type shape string

const rankedAnomalies shape = "anomalies.ranked"

// shapes lists every query kind, then the ranked anomalies shape.
func shapes() []shape {
	var out []shape
	for _, k := range query.Kinds() {
		out = append(out, shape(k))
	}
	return append(out, rankedAnomalies)
}

// kind is the query kind a request of the shape asks.
func (s shape) kind() query.Kind {
	if s == rankedAnomalies {
		return query.KindAnomalies
	}
	return query.Kind(s)
}

// deal is one card of the deck: a shape, and whether it goes over HTTP.
type deal struct {
	shape   shape
	viaHTTP bool
}

// dealNext deals the next card. Each cycle holds every shape exactly its
// share of times, and exactly http_share of each shape over HTTP, in a
// seeded order, so the mix of a run is exact and only the order is
// random.
func (g *queryGen) dealNext() deal {
	if g.next%len(g.deck) == 0 {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	d := g.deck[g.next%len(g.deck)]
	g.next++
	return d
}

// anchor picks the position a request is built around, among the first
// fed position reports.
func (g *queryGen) anchor(fed int) posRef {
	f := g.f
	if fed < 1 {
		fed = 1
	}
	switch {
	case g.zipfVessel != nil:
		if g.drawn%hotSetQueries == 0 {
			g.newHotSet()
		}
		g.drawn++
		m := g.vesselPerm[g.zipfVessel.Uint64()]
		at := f.start.Add(time.Duration(g.windowPerm[g.zipfWindow.Uint64()])*windowBucket + time.Duration(g.rng.Int63n(int64(windowBucket))))
		idx := f.byVessel[m]
		// The vessel's fed report closest to the window.
		j := sort.Search(len(idx), func(j int) bool { return idx[j] >= fed || !f.pos[idx[j]].at.Before(at) })
		if j == len(idx) || idx[j] >= fed {
			j--
		}
		if j < 0 {
			return f.pos[g.rng.Intn(fed)]
		}
		return f.pos[idx[j]]
	case g.recent > 0:
		lo := max(fed-g.recent, 0)
		return f.pos[lo+g.rng.Intn(fed-lo)]
	default:
		return f.pos[g.rng.Intn(fed)]
	}
}

// request draws one card and builds its request over the first fed
// position reports.
func (g *queryGen) request(fed int) (deal, query.Request) {
	d := g.dealNext()
	return d, buildRequest(d.shape, g.anchor(fed))
}

func boxAround(p geo.Point, dLat, dLon float64) *query.Box {
	return &query.Box{MinLat: p.Lat - dLat, MinLon: p.Lon - dLon, MaxLat: p.Lat + dLat, MaxLon: p.Lon + dLon}
}

// buildRequest builds a request of shape s around anchor a.
func buildRequest(s shape, a posRef) query.Request {
	r := query.Request{Kind: s.kind()}
	if s == rankedAnomalies {
		r.Limit = 10
		return r
	}
	switch r.Kind {
	case query.KindTrajectory:
		r.MMSI, r.From, r.To = a.mmsi, a.at.Add(-20*time.Minute), a.at
	case query.KindSpaceTime:
		r.Box, r.From, r.To = boxAround(a.pt, 0.1, 0.1), a.at.Add(-10*time.Minute), a.at
	case query.KindNearest:
		r.Lat, r.Lon, r.At, r.Tol, r.K = a.pt.Lat, a.pt.Lon, a.at, query.Duration(15*time.Minute), 10
	case query.KindLivePicture:
		r.Box = boxAround(a.pt, 0.5, 0.5)
	case query.KindSituation:
		r.Box, r.Rows, r.Cols = boxAround(a.pt, 1, 1.5), 12, 24
	case query.KindAlertHistory:
		r.From, r.To, r.MinSeverity, r.Limit = a.at.Add(-30*time.Minute), a.at, 2, 50
	case query.KindStats:
	case query.KindTrack, query.KindQuality:
		r.MMSI = a.mmsi
	case query.KindPredict:
		r.MMSI, r.Horizon = a.mmsi, query.Duration(10*time.Minute)
	case query.KindAnomalies:
		r.MMSI = a.mmsi
	}
	return r
}

// checkSet is a fixed seeded set of requests, two of every shape, used
// for the equivalence checks.
func checkSet(seed int64, f *feed, fed int) []query.Request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []query.Request
	for _, s := range shapes() {
		for i := 0; i < 2; i++ {
			out = append(out, buildRequest(s, f.pos[rng.Intn(fed)]))
		}
	}
	return out
}

// checkAnswer verifies what can be verified of an answer without a
// reference: the kind, and for state-returning kinds that every state
// satisfies the request's filters in the documented order.
func checkAnswer(req query.Request, res *query.Result) error {
	if res == nil || res.Kind != req.Kind {
		return fmt.Errorf("%s: answer of the wrong kind", req.Kind)
	}
	inWindow := func(at time.Time) bool {
		return (req.From.IsZero() || !at.Before(req.From)) && (req.To.IsZero() || !at.After(req.To))
	}
	switch req.Kind {
	case query.KindTrajectory:
		for i, s := range res.States {
			if s.MMSI != req.MMSI || !inWindow(s.At) || (i > 0 && s.At.Before(res.States[i-1].At)) {
				return fmt.Errorf("trajectory: state %d of %d breaks the request", i, len(res.States))
			}
		}
	case query.KindSpaceTime:
		r := req.Box.Rect()
		for i, s := range res.States {
			if !r.Contains(geo.Point{Lat: s.Lat, Lon: s.Lon}) || !inWindow(s.At) {
				return fmt.Errorf("spacetime: state %d outside box or window", i)
			}
			if i > 0 {
				p := res.States[i-1]
				if s.MMSI < p.MMSI || (s.MMSI == p.MMSI && s.At.Before(p.At)) {
					return fmt.Errorf("spacetime: state %d out of (mmsi, time) order", i)
				}
			}
		}
	case query.KindNearest:
		seen := make(map[uint32]bool, len(res.States))
		for _, s := range res.States {
			if seen[s.MMSI] {
				return fmt.Errorf("nearest: vessel %d twice", s.MMSI)
			}
			seen[s.MMSI] = true
		}
		if len(res.States) > req.K {
			return fmt.Errorf("nearest: %d vessels for k=%d", len(res.States), req.K)
		}
	case query.KindLivePicture:
		r := req.Box.Rect()
		for i, s := range res.States {
			if !r.Contains(geo.Point{Lat: s.Lat, Lon: s.Lon}) {
				return fmt.Errorf("live: state %d outside box", i)
			}
		}
	case query.KindStats:
		if res.Stats == nil {
			return fmt.Errorf("stats: no payload")
		}
	case query.KindSituation:
		if res.Situation == nil {
			return fmt.Errorf("situation: no payload")
		}
	}
	return nil
}

// rows is the size of an answer: states, alerts or live vessels.
func rows(res *query.Result) int {
	if res == nil {
		return 0
	}
	return res.Count
}
