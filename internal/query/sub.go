package query

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stream"
)

// This file is the continuous half of the query surface: the same typed
// Request that answers a one-shot read becomes a standing query whose
// incremental results are pushed to the subscriber. A Hub fans published
// vessel states and alerts out to bounded per-subscriber queues (a slow
// consumer drops updates — counted, never blocking the publisher), keeps
// a replay ring so a reconnecting subscriber can resume from its last
// sequence number, and a Streamer adds the kinds a pure pub/sub cannot
// serve (the periodic situation ticker). The HTTP form is /v1/stream
// (stream_http.go); Client.Subscribe is the remote peer (client.go).

// UpdateKind discriminates the payload of a pushed Update: a hub
// publication (state, alert), stream bookkeeping (heartbeat, error,
// rewound), or — on a ticker subscription — the subscribed request's
// Kind, whose recomputed answer rides in Update.Payload.
type UpdateKind string

// The update kinds a subscription delivers besides ticks.
const (
	// UpdateState carries one newly archived vessel state.
	UpdateState UpdateKind = "state"
	// UpdateAlert carries one newly recognised alert.
	UpdateAlert UpdateKind = "alert"
	// UpdateHeartbeat is a keep-alive: no payload, but Seq acknowledges
	// the subscriber's position and Dropped surfaces queue overflow. The
	// HTTP stream emits them; in-process subscriptions do not need them.
	UpdateHeartbeat UpdateKind = "heartbeat"
	// UpdateError terminates an HTTP stream: the subscription failed
	// server-side (Error says why) and will not resume. The client
	// absorbs it into Subscription.Err.
	UpdateError UpdateKind = "error"
	// UpdateRewound marks a resume that crossed a daemon epoch: the
	// server restarted (or the reconnect landed on a different daemon),
	// so the old cursor is meaningless — the client reset it and the
	// stream continues live-only from Seq in the new epoch. Whatever the
	// previous daemon retained but had not delivered is gone; the
	// subscriber sees the discontinuity instead of silently missing it.
	// Counted in Subscription.Rewound.
	UpdateRewound UpdateKind = "rewound"
)

// Update is one pushed increment of a standing query. Seq is the hub's
// global publication sequence — strictly increasing across every update a
// subscription delivers, so "resume from the last Seq I saw" is always
// well defined. (Ticker subscriptions are the exception: their answers
// are recomputed, not replayed, so Seq counts that subscription's ticks.)
//
// Sequences are per daemon epoch: a daemon restart (or a reconnect
// routed to a different daemon) starts a new sequence space under a new
// epoch nonce. Heartbeats stamp the epoch, so a client resuming with a
// cursor from a previous epoch detects the change, resets its cursor and
// surfaces an UpdateRewound instead of silently continuing live-only.
type Update struct {
	Seq  uint64     `json:"seq"`
	Kind UpdateKind `json:"kind"`

	State *State `json:"state,omitempty"`
	Alert *Alert `json:"alert,omitempty"`
	// Payload is a tick: the same answer a one-shot Query of the
	// standing request returns, recomputed.
	Payload

	// Dropped (heartbeats only) is the number of updates this
	// subscription has lost to queue overflow so far.
	Dropped uint64 `json:"dropped,omitempty"`

	// Epoch (heartbeats and rewound markers) identifies the daemon
	// instance whose sequence space Seq lives in: a random nonce drawn
	// at hub construction, stable for the daemon's lifetime.
	Epoch uint64 `json:"epoch,omitempty"`

	// Error (UpdateError only) is the server-side failure that ended the
	// stream.
	Error string `json:"error,omitempty"`
}

// SubOptions tunes one subscription. The zero value is usable.
type SubOptions struct {
	// Buffer bounds the subscriber's queue (default HubConfig.Buffer).
	// When the queue is full, new updates are dropped for this subscriber
	// and counted — a slow consumer never blocks the publisher.
	Buffer int
	// FromSeq resumes the subscription: updates still retained in the
	// hub's replay ring with Seq > FromSeq are delivered first, then the
	// live stream continues. 0 subscribes from "now" — unless Resume is
	// set. Replay is best-effort: updates older than the ring are gone
	// (compare the first delivered Seq with FromSeq+1 to detect the gap).
	FromSeq uint64
	// Resume marks FromSeq as an authoritative cursor even at 0: a
	// subscriber that attached at sequence 0 and lost its stream before
	// receiving anything still wants everything retained, not "from
	// now". Client reconnects set it; fresh subscriptions leave it off.
	Resume bool
	// Heartbeat is the keep-alive cadence of the HTTP stream (default
	// 15s, minimum 100ms). In-process subscriptions ignore it.
	Heartbeat time.Duration
	// Tick is the recompute cadence of the ticker kinds — situation,
	// track, predict, quality, anomalies — (default 2s, minimum 10ms).
	// Other kinds ignore it.
	Tick time.Duration
}

func (o SubOptions) heartbeat() time.Duration {
	switch {
	case o.Heartbeat <= 0:
		return 15 * time.Second
	case o.Heartbeat < 100*time.Millisecond:
		return 100 * time.Millisecond
	}
	return o.Heartbeat
}

func (o SubOptions) tick() time.Duration {
	switch {
	case o.Tick <= 0:
		return 2 * time.Second
	case o.Tick < 10*time.Millisecond:
		return 10 * time.Millisecond
	}
	return o.Tick
}

// Subscriber turns a Request into a standing query. Implementations:
// Hub (state/alert kinds), Streamer (adds situation tickers), the ingest
// engine (its hub + query engine), and Client (a remote daemon's hub over
// /v1/stream) — the push half of the Executor contract.
type Subscriber interface {
	Subscribe(req Request, opt SubOptions) (*Subscription, error)
}

// Subscription is one standing query. Read Updates until it closes; the
// channel closes after Cancel, or — for remote subscriptions — once the
// connection is lost beyond the client's retry budget (Err then reports
// why). Dropped counts updates lost to this subscriber's bounded queue.
type Subscription struct {
	req      Request
	ch       chan Update
	startSeq uint64
	epoch    atomic.Uint64 // serving daemon's epoch (updated across remote resumes)

	delivered atomic.Uint64
	dropped   atomic.Uint64
	rewinds   atomic.Uint64

	filter func(*Update) bool // hub-side match; nil for remote/ticker subs
	flight *obs.Flight        // hub's flight recorder; nil when unset

	cancelOnce sync.Once
	stop       func()

	errMu sync.Mutex
	err   error
}

// Updates is the push channel of the standing query.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Request returns the standing request.
func (s *Subscription) Request() Request { return s.req }

// StartSeq is the hub sequence at subscribe time: every update with a
// larger Seq is either delivered or counted in Dropped.
func (s *Subscription) StartSeq() uint64 { return s.startSeq }

// Epoch is the serving daemon's epoch nonce (the sequence space Seq
// lives in). For remote subscriptions it tracks the daemon currently
// serving the stream, so it changes when a resume crosses a restart.
func (s *Subscription) Epoch() uint64 { return s.epoch.Load() }

// Rewound counts the resumes that crossed a daemon epoch: each one reset
// the cursor (replay impossible — the retention belonged to the previous
// epoch) and delivered an UpdateRewound marker. Always 0 for in-process
// subscriptions.
func (s *Subscription) Rewound() uint64 { return s.rewinds.Load() }

// Delivered counts updates enqueued to this subscription.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Dropped counts updates lost to this subscription's full queue. For
// remote subscriptions it accumulates the server-side counts carried by
// heartbeats across reconnects, which makes it an upper bound: an
// update dropped from the queue and later recovered by ring replay on
// resume stays counted, even though it was ultimately delivered.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel ends the standing query; Updates closes soon after. Safe to call
// more than once and concurrently with delivery.
func (s *Subscription) Cancel() { s.cancelOnce.Do(s.stop) }

// Err reports why a subscription ended, if it ended abnormally (a remote
// stream lost beyond the retry budget). Nil after a plain Cancel.
func (s *Subscription) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *Subscription) setErr(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// offer delivers u if it matches the subscription, without ever blocking:
// a full queue drops the update and counts it.
func (s *Subscription) offer(u Update, hub *stream.Metrics) {
	if s.filter != nil && !s.filter(&u) {
		return
	}
	select {
	case s.ch <- u:
		s.delivered.Add(1)
		if hub != nil {
			hub.Out.Add(1)
		}
	default:
		n := s.dropped.Add(1)
		if hub != nil {
			hub.Dropped.Add(1)
		}
		// First drop is the incident signal; after that, one event per
		// 1024 keeps a sustained overflow visible without flooding the
		// ring with its own symptom.
		if n == 1 || n%1024 == 0 {
			s.flight.Record(obs.FlightWarn, "hub", "subscriber dropping updates",
				obs.FS("kind", string(s.req.Kind)), obs.FI("dropped", int64(n)))
		}
	}
}

// HubConfig parameterises a Hub. The zero value is usable.
type HubConfig struct {
	// Replay is the capacity of the resume ring (default 4096 updates).
	Replay int
	// Buffer is the default per-subscriber queue bound (default 256).
	Buffer int
}

func (c *HubConfig) normalize() {
	if c.Replay < 1 {
		c.Replay = 4096
	}
	if c.Buffer < 1 {
		c.Buffer = 256
	}
}

// Hub is the pub/sub core of the subscription surface: publishers push
// vessel states and alerts, subscribers receive the subset matching their
// standing Request through bounded queues. Publication is cheap while
// nothing has ever subscribed (one atomic load), so an ingest path can
// publish unconditionally.
//
// Hub implements tstore.Sink, so attaching it to a store (optionally
// tee'd with a persistence flusher) publishes exactly the records that
// reach the archive — the set a one-shot replay of the same request
// returns, which is what makes a subscription equivalent to its
// point-in-time twin.
type Hub struct {
	cfg   HubConfig
	epoch uint64 // random instance nonce stamped on heartbeats

	// Metrics counts publications (In), enqueued deliveries across all
	// subscribers (Out) and slow-consumer drops (Dropped).
	Metrics stream.Metrics

	// armed is set on first Subscribe and deliberately never cleared:
	// retention must continue while a subscriber is disconnected (zero
	// live subscriptions) or there would be nothing to replay when it
	// resumes — the cost is one wire conversion + mutexed ring write per
	// archived record after the first subscriber ever appears.
	armed atomic.Bool

	// flight, when attached (SetFlight), receives subscriber-drop
	// transitions — the ordered record of *when* a consumer fell behind.
	flight atomic.Pointer[obs.Flight]

	mu   sync.Mutex
	seq  uint64
	ring []Update // replay ring, len == cfg.Replay once armed
	subs map[*Subscription]struct{}

	// pubNS, set by Instrument before the hub sees traffic, samples the
	// cost of one publication (ring write + fan-out) every 64th publish.
	pubNS *obs.Histogram
}

// NewHub builds a hub with a fresh epoch nonce.
func NewHub(cfg HubConfig) *Hub {
	cfg.normalize()
	return &Hub{cfg: cfg, epoch: newEpoch(), subs: make(map[*Subscription]struct{})}
}

// newEpoch draws the random daemon-instance nonce sequence spaces are
// scoped by. Zero is reserved for "unknown" (pre-epoch peers), so it is
// never returned.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
		return e
	}
	return 1
}

// SetFlight attaches a flight recorder: subscriptions created after the
// call record their drop transitions into it. Safe on a live hub.
func (h *Hub) SetFlight(f *obs.Flight) { h.flight.Store(f) }

// Seq returns the current publication sequence.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Epoch returns the hub's instance nonce: the identifier of the sequence
// space its updates are numbered in, stamped on stream heartbeats so
// resuming clients can tell a restart from a blip.
func (h *Hub) Epoch() uint64 { return h.epoch }

// Subscribers returns the number of active subscriptions.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Append implements tstore.Sink: every appended record is published as a
// state update. It never fails — a hub cannot refuse traffic, only
// individual slow subscribers can lose it.
func (h *Hub) Append(recs ...model.VesselState) error {
	for i := range recs {
		h.PublishState(recs[i])
	}
	return nil
}

// PublishState publishes one vessel state to matching subscribers.
func (h *Hub) PublishState(s model.VesselState) {
	if !h.armed.Load() {
		return
	}
	ws := StateOf(s)
	h.publish(Update{Kind: UpdateState, State: &ws})
}

// PublishAlert publishes one recognised alert to matching subscribers.
func (h *Hub) PublishAlert(a events.Alert) {
	if !h.armed.Load() {
		return
	}
	wa := AlertOf(a)
	h.publish(Update{Kind: UpdateAlert, Alert: &wa})
}

func (h *Hub) publish(u Update) {
	h.Metrics.In.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	var t0 time.Time
	timed := h.pubNS != nil && h.seq&63 == 0
	if timed {
		t0 = time.Now()
	}
	if h.ring == nil { // armed is set before Subscribe takes the lock
		h.ring = make([]Update, h.cfg.Replay)
	}
	h.seq++
	u.Seq = h.seq
	h.ring[int(h.seq)%len(h.ring)] = u
	for s := range h.subs {
		s.offer(u, &h.Metrics)
	}
	if timed {
		h.pubNS.ObserveSince(t0) // atomic adds; no IO under the lock
	}
}

// Instrument registers the hub's fan-out series with reg — publication,
// delivery and drop counters (windows onto Metrics), subscriber count,
// aggregate and worst per-subscriber queue depth — and enables sampled
// publish timing (hub_publish_ns, every 64th publication). Call before
// the hub starts receiving traffic; pubNS is read without
// synchronisation after that.
func (h *Hub) Instrument(reg *obs.Registry) {
	h.pubNS = reg.Histogram("hub_publish_ns")
	reg.CounterFunc("hub_published_total", func() float64 { return float64(h.Metrics.In.Load()) })
	reg.CounterFunc("hub_delivered_total", func() float64 { return float64(h.Metrics.Out.Load()) })
	reg.CounterFunc("hub_dropped_total", func() float64 { return float64(h.Metrics.Dropped.Load()) })
	reg.GaugeFunc("hub_subscribers", func() float64 { return float64(h.Subscribers()) })
	reg.GaugeFunc("hub_queue_depth", func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		total := 0
		for s := range h.subs {
			total += len(s.ch)
		}
		return float64(total)
	})
	reg.GaugeFunc("hub_queue_depth_max", func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		mx := 0
		for s := range h.subs {
			if n := len(s.ch); n > mx {
				mx = n
			}
		}
		return float64(mx)
	})
}

// Subscribe turns req into a standing query against the hub: the kinds
// with a hub filter (trajectory follows one vessel, spacetime and live
// watch a box, alerts is the filtered alert feed). Ticker kinds need an
// executor — subscribe through a Streamer (or the ingest engine).
func (h *Hub) Subscribe(req Request, opt SubOptions) (*Subscription, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	req = req.normalize()
	spec := kindIndex[req.Kind]
	if spec.filter == nil {
		return nil, fmt.Errorf("query: kind %q is not streamable (one of %v, or %v via a Streamer)", req.Kind,
			kindsWhere(func(k *kindSpec) bool { return k.filter != nil }),
			kindsWhere(func(k *kindSpec) bool { return k.ticker }))
	}
	filter := spec.filter(req)
	buf := opt.Buffer
	if buf < 1 {
		buf = h.cfg.Buffer
	}
	h.armed.Store(true)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ring == nil {
		h.ring = make([]Update, h.cfg.Replay)
	}
	// Best-effort replay: everything still in the ring after FromSeq, in
	// sequence order. Entries older than seq-len(ring) have been
	// overwritten; the subscriber detects the gap from the first Seq.
	var replay []Update
	startSeq := h.seq
	if (opt.FromSeq > 0 || opt.Resume) && opt.FromSeq < h.seq {
		lo := opt.FromSeq + 1
		if h.seq >= uint64(len(h.ring)) && lo < h.seq-uint64(len(h.ring))+1 {
			lo = h.seq - uint64(len(h.ring)) + 1
		}
		for q := lo; q <= h.seq; q++ {
			if u := h.ring[int(q)%len(h.ring)]; u.Seq == q && filter(&u) {
				replay = append(replay, u)
			}
		}
		startSeq = opt.FromSeq
	}
	// The queue is sized for the whole replay on top of the configured
	// bound, so every retained-and-matching update really is delivered —
	// a resume must not lose to its own (still undrained) fresh queue.
	sub := &Subscription{
		req: req, ch: make(chan Update, buf+len(replay)),
		filter: filter, startSeq: startSeq, flight: h.flight.Load(),
	}
	sub.epoch.Store(h.epoch)
	sub.stop = func() { h.remove(sub) }
	for _, u := range replay {
		sub.offer(u, &h.Metrics)
	}
	h.subs[sub] = struct{}{}
	return sub, nil
}

func (h *Hub) remove(sub *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch) // publication holds h.mu, so no send can race this
	}
}

// inWindow reports whether at falls in the request's time bounds.
func inWindow(req Request) func(time.Time) bool {
	from, to := req.timeRange()
	return func(at time.Time) bool { return !at.Before(from) && !at.After(to) }
}

// followFilter follows one vessel's archived states.
func followFilter(req Request) func(*Update) bool {
	in := inWindow(req)
	return func(u *Update) bool {
		return u.Kind == UpdateState && u.State.MMSI == req.MMSI && in(u.State.At)
	}
}

// boxWatchFilter watches a box, time bounds honoured.
func boxWatchFilter(req Request) func(*Update) bool {
	in, r := inWindow(req), req.Box.Rect()
	return func(u *Update) bool {
		return u.Kind == UpdateState && in(u.State.At) &&
			r.Contains(geo.Point{Lat: u.State.Lat, Lon: u.State.Lon})
	}
}

// liveFilter watches a box without time bounds.
func liveFilter(req Request) func(*Update) bool {
	r := req.Box.Rect()
	return func(u *Update) bool {
		return u.Kind == UpdateState && r.Contains(geo.Point{Lat: u.State.Lat, Lon: u.State.Lon})
	}
}

// alertFilter is the severity- and time-filtered alert feed.
func alertFilter(req Request) func(*Update) bool {
	in := inWindow(req)
	return func(u *Update) bool {
		return u.Kind == UpdateAlert && u.Alert.Severity >= req.MinSeverity && in(u.Alert.At)
	}
}

// Streamer is the full Subscriber over a hub plus an executor: pub/sub
// kinds go to the hub, the ticker kinds (situation, track, predict,
// quality, anomalies) periodically recompute their answer through the
// executor and push its Payload — a predict subscription shows
// dead-reckoned motion between AIS reports this way. It is also an
// Executor (delegating one-shot requests), so a Streamer is a complete
// two-mode surface NewServer can serve on its own.
type Streamer struct {
	hub  *Hub
	exec Executor
}

// NewStreamer composes a hub and an executor into a full Subscriber.
func NewStreamer(hub *Hub, exec Executor) *Streamer {
	return &Streamer{hub: hub, exec: exec}
}

// Hub returns the underlying hub.
func (st *Streamer) Hub() *Hub { return st.hub }

// Query implements Executor by delegating to the composed executor.
func (st *Streamer) Query(req Request) (*Result, error) {
	if st.exec == nil {
		return nil, fmt.Errorf("query: streamer has no executor")
	}
	return st.exec.Query(req)
}

// Subscribe implements Subscriber.
func (st *Streamer) Subscribe(req Request, opt SubOptions) (*Subscription, error) {
	if spec := kindIndex[req.Kind]; spec == nil || !spec.ticker {
		return st.hub.Subscribe(req, opt)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if st.exec == nil {
		return nil, fmt.Errorf("query: %s subscriptions need an executor", req.Kind)
	}
	req = req.normalize()
	buf := opt.Buffer
	if buf < 1 {
		buf = st.hub.cfg.Buffer
	}
	done := make(chan struct{})
	sub := &Subscription{req: req, ch: make(chan Update, buf), startSeq: opt.FromSeq, flight: st.hub.flight.Load()}
	sub.epoch.Store(st.hub.epoch)
	sub.stop = func() { close(done) }
	go func() {
		defer close(sub.ch)
		tick := time.NewTicker(opt.tick())
		defer tick.Stop()
		// Ticks are recomputed, not replayed: Seq counts them — seeded
		// from FromSeq so a transparently resumed remote subscription
		// keeps its sequence strictly increasing across reconnects.
		n := opt.FromSeq
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			res, err := st.exec.Query(req)
			if err != nil {
				sub.setErr(err)
				return
			}
			if res.Payload == (Payload{}) { // vessel unknown yet: no tick
				continue
			}
			n++
			// Ticks are assembled, not published: keep them out of the
			// hub's In/Out accounting (drops still show on the
			// subscription itself).
			sub.offer(Update{Seq: n, Kind: UpdateKind(req.Kind), Payload: res.Payload}, nil)
		}
	}()
	return sub, nil
}
