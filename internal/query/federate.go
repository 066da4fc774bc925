package query

import (
	"context"
	"time"

	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
)

// This file makes *Client a Source — the federation member of the read
// surface. The Source and Executor contracts are two views of the same
// remote daemon: an Executor answers whole typed Requests, a Source
// answers the six primitive reads an Engine merges. Implementing the
// latter in terms of the former means any daemon serving /v1/query can
// be composed into another daemon's query engine verbatim:
//
//	eng := query.NewEngine(
//	    query.NewLiveSource(sharded),       // this daemon's picture
//	    query.NewClient("peer-a:8080"),     // a federation member
//	)
//
// which is exactly what `maritimed -peer URL` wires up. Results merge
// and deduplicate on (MMSI, timestamp) like any other source pair.
//
// Two federation-specific behaviours:
//
//   - One hop only. Every federated read sets Request.Local, so the peer
//     answers from its own sources and does not fan out to *its* peers —
//     mutually-peered daemons cannot create a query cycle.
//   - Degraded mode. A peer that times out (PeerTimeout, default 5s) or
//     errors contributes nothing to that answer instead of failing it;
//     the failure is retained and surfaced through Stats().Err, so an
//     operator sees the degradation in any stats read.
//
// The actual read bodies live on peerView, a Source view of the client
// bound to (at most) one traced request: when the engine runs a traced
// query it substitutes c.withTrace(tr), and every federated exchange
// forwards Request.Trace, grafts the peer's returned spans under a
// peer/<addr> span (rebased onto the local trace's clock), and records
// a degraded child when the peer failed — one stitched tree spanning
// daemons instead of a trace that dies at the HTTP hop.

// PeerSource is a Source that answers from another daemon. Engines skip
// peer sources when a request is marked Local — the loop guard that keeps
// federation one hop deep.
type PeerSource interface {
	Source
	// Peer identifies the federation member (its base URL).
	Peer() string
}

// traceSource is a Source that can bind a per-request trace; the engine
// substitutes the returned view for the duration of one traced request.
type traceSource interface {
	withTrace(tr *obs.Trace) Source
}

// Name implements Source: the label peers carry in Result.Sources.
func (c *Client) Name() string {
	if c.PeerName != "" {
		return c.PeerName
	}
	return "peer:" + c.Base
}

// Peer implements PeerSource.
func (c *Client) Peer() string { return c.Base }

// withTrace implements traceSource.
func (c *Client) withTrace(tr *obs.Trace) Source { return peerView{c: c, tr: tr} }

// PeerErr returns the most recent federated-read failure (nil while the
// peer is healthy or after it recovers).
func (c *Client) PeerErr() error {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	return c.peerErr
}

func (c *Client) peerTimeout() time.Duration {
	if c.PeerTimeout > 0 {
		return c.PeerTimeout
	}
	return 5 * time.Second
}

// notePeer records the read's outcome and emits a flight event on the
// healthy<->degraded edge (not per failing read — a dead peer under a
// query storm is one incident, not a thousand).
func (c *Client) notePeer(err error) {
	c.peerMu.Lock()
	wasDown := c.peerDown
	c.peerErr = err
	c.peerDown = err != nil
	c.peerMu.Unlock()
	if c.Flight == nil || wasDown == (err != nil) {
		return
	}
	if err != nil {
		c.Flight.Record(obs.FlightWarn, "query", "federation peer degraded",
			obs.FS("peer", c.Base), obs.FS("err", err.Error()))
	} else {
		c.Flight.Record(obs.FlightInfo, "query", "federation peer recovered",
			obs.FS("peer", c.Base))
	}
}

// peerView is the client's Source implementation, carrying the trace of
// the request it is answering (nil on the untraced path — the Client's
// own Source methods delegate through a zero-trace view).
type peerView struct {
	c  *Client
	tr *obs.Trace
}

// Name implements Source.
func (v peerView) Name() string { return v.c.Name() }

// Peer implements PeerSource.
func (v peerView) Peer() string { return v.c.Base }

// peerQuery issues one federated read: local-only on the peer, bounded
// by the peer timeout, failures recorded instead of propagated. Callers
// use the returned error (not PeerErr, which a concurrent recovered read
// may have cleared in the meantime). The read deliberately skips the
// client's retry policy: a dead peer must degrade after one connection
// attempt, not charge backoff to every local query that fans to it —
// retrying is the next query's job. Under a trace, the peer computes its
// own stage spans (Request.Trace forwarded) and stitch grafts them in.
func (v peerView) peerQuery(req Request) (*Result, error) {
	c := v.c
	req.Local = true
	req.Trace = v.tr != nil
	start := v.tr.Offset()
	t0 := time.Now()
	//lint:ignore ctxflow the Source interface is ctx-free (ROADMAP: ctx threading lands with the cluster refactor); the peer timeout bounds this detached call
	ctx, cancel := context.WithTimeout(context.Background(), c.peerTimeout())
	defer cancel()
	res, err := c.queryContext(ctx, req, RetryPolicy{})
	c.notePeer(err)
	if v.tr != nil {
		v.stitch(start, time.Since(t0), res, err)
	}
	return res, err
}

// stitch grafts one federated exchange into the local trace: a
// peer/<addr> span nested under this source's fan-out span, the peer's
// own stages as its children (names path-prefixed so two daemons' merge
// spans stay distinct, offsets rebased onto the local clock — the hop's
// network time is the gap between the parent and its children), and a
// degraded child instead of silence when the peer failed.
func (v peerView) stitch(start, dur time.Duration, res *Result, err error) {
	parent := "peer/" + v.c.Base
	v.tr.Add(obs.Span{Name: parent, Parent: "source:" + v.c.Name(), Start: start, Dur: dur})
	if err != nil {
		v.tr.Add(obs.Span{Name: parent + "/degraded", Parent: parent, Start: start, Dur: dur})
		return
	}
	for _, ts := range res.Trace {
		p := parent
		if ts.Parent != "" {
			p = parent + "/" + ts.Parent
		}
		v.tr.Add(obs.Span{
			Name:   parent + "/" + ts.Name,
			Parent: p,
			Start:  start + time.Duration(ts.StartNS),
			Dur:    time.Duration(ts.DurNS),
		})
	}
}

// states runs one federated state read; a degraded peer contributes
// nothing.
func (v peerView) states(req Request) []model.VesselState {
	res, err := v.peerQuery(req)
	if err != nil {
		return nil
	}
	return res.ModelStates()
}

// Trajectory implements Source.
func (v peerView) Trajectory(mmsi uint32, from, to time.Time) []model.VesselState {
	return v.states(Request{Kind: KindTrajectory, MMSI: mmsi, From: from, To: to})
}

// SpaceTime implements Source.
func (v peerView) SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	b := BoxOf(r)
	return v.states(Request{Kind: KindSpaceTime, Box: &b, From: from, To: to})
}

// Nearest implements Source.
func (v peerView) Nearest(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	return v.states(Request{Kind: KindNearest, Lat: p.Lat, Lon: p.Lon, At: at, Tol: Duration(tol), K: k})
}

// Live implements Source.
func (v peerView) Live(r geo.Rect) []model.VesselState {
	b := BoxOf(r)
	return v.states(Request{Kind: KindLivePicture, Box: &b})
}

// Alerts implements Source.
func (v peerView) Alerts() []events.Alert {
	res, err := v.peerQuery(Request{Kind: KindAlertHistory})
	if err != nil {
		return nil
	}
	out := make([]events.Alert, len(res.Alerts))
	for i, a := range res.Alerts {
		out[i] = a.Model()
	}
	return out
}

// Stats implements Source: the peer's aggregate holdings under this
// peer's name, with the degradation (if any) in Err.
func (v peerView) Stats() SourceStats {
	ss, _ := v.stats(false)
	return ss
}

// Answer implements Answerer: the peer computes (or reads) a derived
// kind server-side, so a federated answer costs one exchange, not a
// trajectory fetch plus a local replay. A degraded peer answers empty
// rather than declining — the engine would otherwise replay it, paying
// a second timeout for nothing.
func (v peerView) Answer(req Request) (*Result, bool) {
	res, err := v.peerQuery(req)
	if err != nil {
		return &Result{Kind: req.Kind}, true
	}
	return res, true
}

// DistinctMMSI implements Source: one stats read with the identifier
// sets requested — the peer answers with a sorted uint32 list, so a
// federated stats poll moves O(vessels) integers instead of the peer's
// entire worldwide live picture. A degraded peer contributes nil, like
// every other federated read.
func (v peerView) DistinctMMSI() []uint32 {
	_, set := v.StatsWithMMSI()
	return set
}

// StatsWithMMSI implements StatsSetSource: the engine's stats
// aggregation costs this peer exactly one HTTP exchange, carrying both
// the aggregate numbers and the distinct identifier set.
func (v peerView) StatsWithMMSI() (SourceStats, []uint32) { return v.stats(true) }

// stats runs one federated stats read, with the identifier sets when
// withSets.
func (v peerView) stats(withSets bool) (SourceStats, []uint32) {
	res, err := v.peerQuery(Request{Kind: KindStats, MMSIs: withSets})
	if err != nil {
		return SourceStats{Name: v.Name(), Err: err.Error()}, nil
	}
	if res.Stats == nil {
		// A nonconforming peer (version skew, interposed proxy) must
		// degrade like any other failure, not panic the daemon.
		return SourceStats{Name: v.Name(), Err: "peer answered without stats"}, nil
	}
	st := res.Stats
	return SourceStats{
		Name: v.Name(), Points: st.Points, Vessels: st.Vessels,
		Live: st.Live, Alerts: st.Alerts,
	}, st.MMSIs
}

// --- the Client's own Source surface: untraced delegations -----------------------

// Trajectory implements Source.
func (c *Client) Trajectory(mmsi uint32, from, to time.Time) []model.VesselState {
	return peerView{c: c}.Trajectory(mmsi, from, to)
}

// SpaceTime implements Source.
func (c *Client) SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	return peerView{c: c}.SpaceTime(r, from, to)
}

// Nearest implements Source.
func (c *Client) Nearest(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	return peerView{c: c}.Nearest(p, at, tol, k)
}

// Live implements Source.
func (c *Client) Live(r geo.Rect) []model.VesselState { return peerView{c: c}.Live(r) }

// Alerts implements Source.
func (c *Client) Alerts() []events.Alert { return peerView{c: c}.Alerts() }

// Stats implements Source.
func (c *Client) Stats() SourceStats { return peerView{c: c}.Stats() }

// Answer implements Answerer.
func (c *Client) Answer(req Request) (*Result, bool) { return peerView{c: c}.Answer(req) }

// DistinctMMSI implements Source.
func (c *Client) DistinctMMSI() []uint32 { return peerView{c: c}.DistinctMMSI() }

// StatsWithMMSI implements StatsSetSource.
func (c *Client) StatsWithMMSI() (SourceStats, []uint32) { return peerView{c: c}.StatsWithMMSI() }
