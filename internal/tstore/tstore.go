// Package tstore is the moving-object store of the infrastructure (§2.3):
// an append-optimised archive of vessel trajectories supporting
// time-range, space-time-range and k-nearest-vessel queries, a live layer
// holding the current fleet picture under a grid index, and a compact
// binary snapshot format for persistence. It is safe for concurrent use.
//
// The archive is tierable: a Store with a ChunkStore attached can evict
// cold vessels down to a compact stub (chunk directory + newest sample +
// counts) and every read pages the evicted spans back in transparently,
// reading only the chunks its window and box actually reach — memory
// becomes a cache over the durable store instead of the store itself.
// internal/tier drives eviction (heat tracking, memory budget) and
// implements the chunk store over an object store.
package tstore

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// Sink receives the records appended to a Store (or the updates applied
// to a Live) — the hook a persistence backend attaches to. The canonical
// implementation is internal/store's Flusher, which queues records for an
// asynchronous write-ahead log; implementations must be safe for
// concurrent use when the owning store is used concurrently.
type Sink interface {
	Append(recs ...model.VesselState) error
}

// Tee fans appended records out to several sinks: every sink sees every
// record, and the first error any sink reports is returned (the remaining
// sinks still receive the batch). Nil sinks are skipped, so callers can
// compose optional stages without branching:
//
//	store.Attach(tstore.Tee(hub, flusher)) // publish + persist
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Append(recs ...model.VesselState) error {
	var first error
	for _, s := range t {
		if s == nil {
			continue
		}
		if err := s.Append(recs...); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ChunkStore pages evicted trajectory spans out of a Store and back in —
// the hook the tiered-archive layer (internal/tier) attaches. Spill
// persists one immutable run of a single vessel's time-ordered points
// and returns the key that fetches it back; Fetch must return exactly
// the points Spill was given for that key, bit-for-bit (eviction is
// invisible to every query only if paging is lossless, so chunk
// encodings keep full float64 fidelity — unlike the quantised WAL
// encoding, which only needs restart fidelity). Implementations must be
// safe for concurrent use and should single-flight Fetch per key so
// concurrent queries of the same evicted vessel don't double-load.
type ChunkStore interface {
	Spill(mmsi uint32, pts []model.VesselState) (key string, err error)
	Fetch(key string, mmsi uint32, n int) ([]model.VesselState, error)
}

// ErrVesselHot reports an eviction abandoned because the vessel was
// appended to or read mid-spill — it is hot again, exactly the vessel an
// eviction manager should not be evicting. The spilled objects of the
// abandoned attempt become garbage (reclaimed at the next process
// start).
var ErrVesselHot = errors.New("tstore: vessel touched during eviction")

// tierChunkLen is the spill-run length: large enough that a page-in is
// one sensible object read, small enough that chunk rectangles stay
// tight for nearest/space-time pruning (the spill analogue of
// nearestChunkLen).
const tierChunkLen = 256

// Store archives trajectories keyed by vessel.
type Store struct {
	mu      sync.RWMutex
	vessels map[uint32]*series
	total   int
	sink    Sink
	sinkErr error

	// Tiered-archive state: resident counts points currently held in
	// memory (total keeps counting evicted ones), chunkStore pages
	// evicted spans, clock is the logical last-touch clock eviction
	// ranks vessels by.
	resident   int
	chunkStore ChunkStore
	clock      int64 // atomic
	pageErr    error
	pageIns    atomic.Uint64
	pagedPts   atomic.Uint64

	// fwdMu serialises sink forwarding in append order without holding
	// mu: readers proceed while a slow sink (or a wide pub/sub fan-out)
	// works, yet the sink still sees batches in the order they were
	// inserted and a blocking sink still backpressures the appender.
	fwdMu sync.Mutex
}

// series holds one vessel's points, kept sorted by time. AIS streams are
// near-ordered, so the common append cost is O(1) with a short
// insertion-sort tail for stragglers.
//
// Under tiered storage a series may be partially evicted: chunks
// describes the spilled prefix (immutable runs held by the chunk store)
// and points the resident tail. A fully evicted vessel is the "compact
// stub" of the tiered archive: its chunk directory, its newest sample
// (last) and its counts — everything the live picture, stats and query
// pruning need without paging anything in.
type series struct {
	points    []model.VesselState
	chunks    []evChunk
	last      model.VesselState // newest sample, resident or not
	n         int               // total points, resident + evicted
	lastTouch int64             // atomic: store clock at last append/read
}

// evChunk is one spilled run: its key in the chunk store plus the
// summary (count, bounding rectangle, time span) reads prune by.
type evChunk struct {
	key      string
	n        int
	rect     geo.Rect
	from, to time.Time
}

func (s *series) insert(st model.VesselState) {
	s.points = append(s.points, st)
	for i := len(s.points) - 1; i > 0 && s.points[i].At.Before(s.points[i-1].At); i-- {
		s.points[i], s.points[i-1] = s.points[i-1], s.points[i]
	}
	if s.n == 0 || !st.At.Before(s.last.At) {
		s.last = st
	}
	s.n++
}

// rangeIdx returns the half-open index range of points in [from, to].
func (s *series) rangeIdx(from, to time.Time) (lo, hi int) {
	lo = sort.Search(len(s.points), func(i int) bool { return !s.points[i].At.Before(from) })
	hi = sort.Search(len(s.points), func(i int) bool { return s.points[i].At.After(to) })
	return lo, hi
}

// chunksInWindow returns copies of the spilled-chunk descriptors whose
// time span overlaps [from, to] and, when r is non-nil, whose bounding
// rectangle intersects it — the set a windowed read has to page in.
func (s *series) chunksInWindow(from, to time.Time, r *geo.Rect) []evChunk {
	var need []evChunk
	for _, c := range s.chunks {
		if c.to.Before(from) || c.from.After(to) {
			continue
		}
		if r != nil && !r.Intersects(c.rect) {
			continue
		}
		need = append(need, c)
	}
	return need
}

// New returns an empty store.
func New() *Store {
	return &Store{vessels: make(map[uint32]*series)}
}

// Attach installs a persistence sink: every record appended from now on
// is forwarded to it after insertion (nil detaches). Attach before
// feeding the store — records appended earlier are not replayed into the
// sink. Forwarding errors are retained for SinkErr rather than failing
// the append; the in-memory insert always happens. The sink is called
// after the store lock is released (reads proceed while it works) but
// under a dedicated forwarding lock, so it sees appends in insertion
// order and a blocking sink (a full flush queue) still backpressures the
// appender — attach an asynchronous stage (store.Flusher), not a raw
// disk writer, when ingest latency matters. Note: concurrent appends of
// the *same* vessel from different goroutines have no defined forward
// order (the shipped ingest engine serialises per vessel by sharding).
func (st *Store) Attach(s Sink) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sink = s
}

// SinkErr returns the first error the attached sink reported.
func (st *Store) SinkErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.sinkErr
}

// Append inserts one state sample.
func (st *Store) Append(s model.VesselState) {
	st.mu.Lock()
	st.insertLocked(s)
	sink := st.sink
	st.mu.Unlock()
	if sink != nil {
		st.forward(sink, s)
	}
}

func (st *Store) insertLocked(s model.VesselState) {
	ser, ok := st.vessels[s.MMSI]
	if !ok {
		ser = &series{}
		st.vessels[s.MMSI] = ser
	}
	ser.insert(s)
	st.total++
	st.resident++
	st.touchLocked(ser)
}

// touchLocked advances the vessel's last-touch clock. Callers hold mu in
// either mode (the fields are atomics so read paths can touch under the
// read lock).
func (st *Store) touchLocked(ser *series) {
	atomic.StoreInt64(&ser.lastTouch, atomic.AddInt64(&st.clock, 1))
}

// --- tiered storage: eviction + page-back ----------------------------------------

// SetChunkStore attaches the paging layer evictions spill to and reads
// page back from (nil detaches; eviction then fails, already-spilled
// chunks become unreadable). Attach before the first EvictVessel.
func (st *Store) SetChunkStore(cs ChunkStore) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.chunkStore = cs
}

// EvictVessel spills the vessel's resident points to the chunk store and
// drops them from memory, leaving the compact stub (chunk directory +
// newest sample + counts). Every read keeps working — windowed reads
// page back only the chunks overlapping their window, the live picture
// and stats answer from the stub alone. It returns the number of points
// evicted: 0 when the vessel is unknown or already fully evicted, and
// ErrVesselHot when the vessel was appended to or read mid-spill (the
// caller should simply skip it — it is not cold). Spilling does IO and
// runs outside the store locks, so reads and appends of other vessels
// proceed throughout.
func (st *Store) EvictVessel(mmsi uint32) (int, error) {
	st.mu.RLock()
	cs := st.chunkStore
	ser, ok := st.vessels[mmsi]
	if cs == nil {
		st.mu.RUnlock()
		return 0, fmt.Errorf("tstore: EvictVessel(%d): no chunk store attached", mmsi)
	}
	if !ok || len(ser.points) == 0 {
		st.mu.RUnlock()
		return 0, nil
	}
	snap := append([]model.VesselState(nil), ser.points...)
	touch := atomic.LoadInt64(&ser.lastTouch)
	st.mu.RUnlock()

	var spilled []evChunk
	for lo := 0; lo < len(snap); lo += tierChunkLen {
		hi := lo + tierChunkLen
		if hi > len(snap) {
			hi = len(snap)
		}
		run := snap[lo:hi]
		key, err := cs.Spill(mmsi, run)
		if err != nil {
			return 0, fmt.Errorf("tstore: spilling vessel %d: %w", mmsi, err)
		}
		rect := geo.EmptyRect()
		for _, p := range run {
			rect = rect.Extend(p.Pos)
		}
		spilled = append(spilled, evChunk{
			key: key, n: len(run), rect: rect,
			from: run[0].At, to: run[len(run)-1].At,
		})
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.vessels[mmsi]
	if cur == nil || atomic.LoadInt64(&cur.lastTouch) != touch || len(cur.points) != len(snap) {
		return 0, ErrVesselHot
	}
	cur.chunks = append(cur.chunks, spilled...)
	cur.points = nil
	st.resident -= len(snap)
	return len(snap), nil
}

// fetchChunk pages one spilled run back in (a read, so it heats the
// vessel). Errors park in PageErr as well as being returned, so a
// degraded read surface still shows why it is partial.
func (st *Store) fetchChunk(mmsi uint32, c evChunk) ([]model.VesselState, error) {
	st.mu.RLock()
	cs := st.chunkStore
	if ser, ok := st.vessels[mmsi]; ok {
		st.touchLocked(ser)
	}
	st.mu.RUnlock()
	if cs == nil {
		err := fmt.Errorf("tstore: vessel %d has spilled chunks but no chunk store attached", mmsi)
		st.recordPageErr(err)
		return nil, err
	}
	pts, err := cs.Fetch(c.key, mmsi, c.n)
	if err != nil {
		st.recordPageErr(fmt.Errorf("tstore: paging vessel %d back in: %w", mmsi, err))
		return nil, err
	}
	st.pageIns.Add(1)
	st.pagedPts.Add(uint64(len(pts)))
	return pts, nil
}

// fetchChunks pages a descriptor list back in, degrading on error: a
// failed chunk contributes nothing (PageErr says why) while the rest of
// the read proceeds — the same degraded-not-fatal stance as a federation
// peer outage.
func (st *Store) fetchChunks(mmsi uint32, need []evChunk) [][]model.VesselState {
	parts := make([][]model.VesselState, 0, len(need))
	for _, c := range need {
		if pts, err := st.fetchChunk(mmsi, c); err == nil {
			parts = append(parts, pts)
		}
	}
	return parts
}

func (st *Store) recordPageErr(err error) {
	st.mu.Lock()
	if st.pageErr == nil {
		st.pageErr = err
	}
	st.mu.Unlock()
}

// PageErr returns the first chunk page-back failure (nil while paging is
// healthy). A non-nil value means some read returned resident data only.
func (st *Store) PageErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.pageErr
}

// mergeByTime merges time-sorted runs into one time-sorted slice,
// breaking ties in favour of earlier runs — spill order first, resident
// tail last, which reproduces exactly the order insertion built before
// eviction.
func mergeByTime(parts [][]model.VesselState) []model.VesselState {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		out := make([]model.VesselState, len(parts[0]))
		copy(out, parts[0])
		return out
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]model.VesselState, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].At.Before(parts[best][idx[best]].At) {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// trimWindow narrows a time-sorted run to [from, to].
func trimWindow(pts []model.VesselState, from, to time.Time) []model.VesselState {
	lo := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(from) })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].At.After(to) })
	return pts[lo:hi]
}

// VesselHeat is one vessel's eviction-relevant state: how many points it
// holds in memory and when it was last appended to or read, on the
// store's logical clock.
type VesselHeat struct {
	MMSI      uint32
	Resident  int
	LastTouch int64
}

// Heat returns the vessels currently holding resident points, the
// candidate set an eviction manager ranks by LastTouch.
func (st *Store) Heat() []VesselHeat {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]VesselHeat, 0, len(st.vessels))
	for m, ser := range st.vessels {
		if len(ser.points) == 0 {
			continue
		}
		out = append(out, VesselHeat{
			MMSI: m, Resident: len(ser.points),
			LastTouch: atomic.LoadInt64(&ser.lastTouch),
		})
	}
	return out
}

// Clock returns the store's logical touch clock (advances on every
// append and vessel read).
func (st *Store) Clock() int64 { return atomic.LoadInt64(&st.clock) }

// TierCounters snapshots the store's tiered-storage state.
type TierCounters struct {
	ResidentPoints  int
	EvictedPoints   int
	ResidentVessels int    // vessels with at least one resident point
	EvictedVessels  int    // vessels holding history but zero resident points
	SpilledChunks   int    // chunk-directory entries across all stubs
	PageIns         uint64 // chunk fetches served (cache hits included)
	PagedPoints     uint64 // points those fetches carried
}

// Tier snapshots the store's tiered-storage counters.
func (st *Store) Tier() TierCounters {
	st.mu.RLock()
	defer st.mu.RUnlock()
	tc := TierCounters{
		ResidentPoints: st.resident,
		EvictedPoints:  st.total - st.resident,
		PageIns:        st.pageIns.Load(),
		PagedPoints:    st.pagedPts.Load(),
	}
	for _, ser := range st.vessels {
		tc.SpilledChunks += len(ser.chunks)
		switch {
		case len(ser.points) > 0:
			tc.ResidentVessels++
		case ser.n > 0:
			tc.EvictedVessels++
		}
	}
	return tc
}

// ResidentPoints returns the number of points currently held in memory
// (Len counts evicted points too).
func (st *Store) ResidentPoints() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.resident
}

// forward hands records to the sink outside the store lock, serialised
// in append order by fwdMu; the first error parks in sinkErr.
func (st *Store) forward(sink Sink, recs ...model.VesselState) {
	st.fwdMu.Lock()
	err := sink.Append(recs...)
	st.fwdMu.Unlock()
	if err != nil {
		st.mu.Lock()
		if st.sinkErr == nil {
			st.sinkErr = err
		}
		st.mu.Unlock()
	}
}

// AppendAll inserts a batch of samples, forwarding the whole batch to the
// attached sink in one call.
func (st *Store) AppendAll(states []model.VesselState) {
	st.mu.Lock()
	for _, s := range states {
		st.insertLocked(s)
	}
	sink := st.sink
	st.mu.Unlock()
	if sink != nil && len(states) > 0 {
		st.forward(sink, states...)
	}
}

// Len returns the total number of stored points.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.total
}

// VesselCount returns the number of distinct vessels.
func (st *Store) VesselCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.vessels)
}

// MMSIs returns the sorted vessel identifiers present.
func (st *Store) MMSIs() []uint32 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]uint32, 0, len(st.vessels))
	for m := range st.vessels {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Trajectory returns a copy of the vessel's full trajectory (nil points if
// unknown vessel), paging any evicted spans back in.
func (st *Store) Trajectory(mmsi uint32) *model.Trajectory {
	st.mu.RLock()
	tr := &model.Trajectory{MMSI: mmsi}
	ser, ok := st.vessels[mmsi]
	if !ok {
		st.mu.RUnlock()
		return tr
	}
	st.touchLocked(ser)
	resident := make([]model.VesselState, len(ser.points))
	copy(resident, ser.points)
	need := append([]evChunk(nil), ser.chunks...)
	st.mu.RUnlock()
	if len(need) == 0 {
		tr.Points = resident
		return tr
	}
	parts := st.fetchChunks(mmsi, need)
	parts = append(parts, resident)
	tr.Points = mergeByTime(parts)
	return tr
}

// Latest returns the vessel's newest sample without copying the
// trajectory (false for an unknown vessel). The stub keeps the newest
// sample resident, so this never pages.
func (st *Store) Latest(mmsi uint32) (model.VesselState, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ser, ok := st.vessels[mmsi]
	if !ok || ser.n == 0 {
		return model.VesselState{}, false
	}
	st.touchLocked(ser)
	return ser.last, true
}

// LatestStates returns every vessel's newest sample, ordered by MMSI —
// the archive's "current picture", at O(vessels) instead of the
// O(points) a per-vessel Trajectory walk would copy. Stubs answer from
// their retained newest sample: a fully evicted archive still serves its
// live picture without one page-in.
func (st *Store) LatestStates() []model.VesselState {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]model.VesselState, 0, len(st.vessels))
	for _, ser := range st.vessels {
		if ser.n > 0 {
			out = append(out, ser.last)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
	return out
}

// TimeRange returns the vessel's samples in [from, to], paging in only
// the evicted chunks whose span overlaps the window.
func (st *Store) TimeRange(mmsi uint32, from, to time.Time) []model.VesselState {
	st.mu.RLock()
	ser, ok := st.vessels[mmsi]
	if !ok {
		st.mu.RUnlock()
		return nil
	}
	st.touchLocked(ser)
	lo, hi := ser.rangeIdx(from, to)
	resident := make([]model.VesselState, hi-lo)
	copy(resident, ser.points[lo:hi])
	need := ser.chunksInWindow(from, to, nil)
	st.mu.RUnlock()
	if len(need) == 0 {
		return resident
	}
	parts := st.fetchChunks(mmsi, need)
	for i, p := range parts {
		parts[i] = trimWindow(p, from, to)
	}
	parts = append(parts, resident)
	return mergeByTime(parts)
}

// SpaceTime returns all samples inside the box during [from, to], ordered
// by (MMSI, time). It scans per-vessel time ranges, which is the right
// plan when the time window is selective; use SpatialSnapshot for
// space-selective archival queries. Evicted chunks are paged in only
// when their time span overlaps the window AND their bounding rectangle
// intersects the box — the chunk directory prunes the rest unread.
func (st *Store) SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	type vesselRead struct {
		mmsi     uint32
		resident []model.VesselState // in-window copy, rect not yet applied
		need     []evChunk
	}
	st.mu.RLock()
	reads := make([]vesselRead, 0, len(st.vessels))
	for m, ser := range st.vessels {
		lo, hi := ser.rangeIdx(from, to)
		need := ser.chunksInWindow(from, to, &r)
		if hi == lo && len(need) == 0 {
			continue
		}
		vr := vesselRead{mmsi: m, need: need}
		vr.resident = make([]model.VesselState, hi-lo)
		copy(vr.resident, ser.points[lo:hi])
		st.touchLocked(ser)
		reads = append(reads, vr)
	}
	st.mu.RUnlock()
	sort.Slice(reads, func(i, j int) bool { return reads[i].mmsi < reads[j].mmsi })
	var out []model.VesselState
	for _, vr := range reads {
		merged := vr.resident
		if len(vr.need) > 0 {
			parts := st.fetchChunks(vr.mmsi, vr.need)
			for i, p := range parts {
				parts[i] = trimWindow(p, from, to)
			}
			parts = append(parts, vr.resident)
			merged = mergeByTime(parts)
		}
		for _, p := range merged {
			if r.Contains(p.Pos) {
				out = append(out, p)
			}
		}
	}
	return out
}

// Snapshot is an immutable spatial view over the archive at build time:
// an R-tree whose item IDs encode (vessel, point) so results map back to
// full states, plus a per-vessel time-chunked directory (bounding
// rectangle and time span per run of consecutive samples) that
// NearestVessels searches — candidates are pre-partitioned by time, so a
// selective window prunes whole chunks instead of filtering fetched
// points one by one.
//
// Evicted spans join the same directory as unresolved entries carrying
// their chunk-store key: their rectangle and span still prune and bound
// the best-first search, and their points are paged in only when the
// search actually pops them (or a Search window reaches them) — a
// nearest query over a mostly evicted archive reads back just the
// chunks it would have scanned anyway. Resolution is cached per chunk
// inside the snapshot (sync.Once), so a shared snapshot pages each
// chunk at most once however many queries run over it.
type Snapshot struct {
	rt     *index.RTree
	states []model.VesselState // resident points, (MMSI, time)-ordered
	chunks []snapChunk         // per-vessel runs, grouped by vessel
	total  int                 // resident + evicted points
	fetch  func(mmsi uint32, key string, n int) []model.VesselState
}

// snapChunk summarises up to nearestChunkLen consecutive samples of one
// vessel: their bounding rectangle, time span and either an index range
// in states (resident) or a lazily resolved spilled chunk (evicted).
type snapChunk struct {
	mmsi     uint32
	rect     geo.Rect
	from, to time.Time
	lo, hi   int        // states[lo:hi] when lazy is nil
	lazy     *lazyChunk // non-nil: evicted span, resolved on first use
}

// lazyChunk resolves one evicted span at most once per snapshot.
type lazyChunk struct {
	key  string
	n    int
	once sync.Once
	pts  []model.VesselState
}

// resolve returns the chunk's points, paging an evicted span in on first
// use (nil on page failure — the store records why in PageErr).
func (sn *Snapshot) resolve(c *snapChunk) []model.VesselState {
	if c.lazy == nil {
		return sn.states[c.lo:c.hi]
	}
	c.lazy.once.Do(func() {
		if sn.fetch != nil {
			c.lazy.pts = sn.fetch(c.mmsi, c.lazy.key, c.lazy.n)
		}
	})
	return c.lazy.pts
}

// nearestChunkLen balances directory size against scan width: chunks are
// small enough that rect lower bounds stay tight and a window scan stays
// cheap, large enough that the directory is ~2% of the point count.
const nearestChunkLen = 64

// PointBytes is the in-memory footprint of one resident point (the
// series slice element), the unit eviction memory budgets are accounted
// in. Map, slice-header and stub overheads ride on top, so a budget is a
// floor on what eviction can reclaim, not an exact RSS bound.
var PointBytes = int(unsafe.Sizeof(model.VesselState{}))

// SpatialSnapshot builds a snapshot over all points currently stored.
// Evicted spans are not paged in at build time — they enter the chunk
// directory as lazy entries resolved only if a query reaches them.
func (st *Store) SpatialSnapshot() *Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	states := make([]model.VesselState, 0, st.resident)
	mmsis := make([]uint32, 0, len(st.vessels))
	for m := range st.vessels {
		mmsis = append(mmsis, m)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
	sn := &Snapshot{total: st.total}
	anyLazy := false
	for _, m := range mmsis {
		ser := st.vessels[m]
		for _, c := range ser.chunks {
			sn.chunks = append(sn.chunks, snapChunk{
				mmsi: m, rect: c.rect, from: c.from, to: c.to,
				lazy: &lazyChunk{key: c.key, n: c.n},
			})
			anyLazy = true
		}
		pts := ser.points
		base := len(states)
		states = append(states, pts...)
		for lo := 0; lo < len(pts); lo += nearestChunkLen {
			hi := lo + nearestChunkLen
			if hi > len(pts) {
				hi = len(pts)
			}
			c := snapChunk{
				mmsi: m, rect: geo.EmptyRect(),
				from: pts[lo].At, to: pts[hi-1].At,
				lo: base + lo, hi: base + hi,
			}
			for _, p := range pts[lo:hi] {
				c.rect = c.rect.Extend(p.Pos)
			}
			sn.chunks = append(sn.chunks, c)
		}
	}
	items := make([]index.Item, len(states))
	for i, s := range states {
		items[i] = index.Item{Pos: s.Pos, ID: uint64(i)}
	}
	sn.rt = index.BuildRTree(items)
	sn.states = states
	if anyLazy {
		sn.fetch = func(mmsi uint32, key string, n int) []model.VesselState {
			pts, _ := st.fetchChunk(mmsi, evChunk{key: key, n: n})
			return pts
		}
	}
	return sn
}

// Len returns the number of points the snapshot covers, resident and
// evicted alike.
func (sn *Snapshot) Len() int { return sn.total }

// Search returns the states inside the box during [from, to]. Resident
// points come from the R-tree; evicted chunks are paged in only when
// both their rectangle and their span overlap the query.
func (sn *Snapshot) Search(r geo.Rect, from, to time.Time) []model.VesselState {
	var out []model.VesselState
	for _, it := range sn.rt.Search(r, nil) {
		s := sn.states[it.ID]
		if !s.At.Before(from) && !s.At.After(to) {
			out = append(out, s)
		}
	}
	for i := range sn.chunks {
		c := &sn.chunks[i]
		if c.lazy == nil || c.to.Before(from) || c.from.After(to) || !r.Intersects(c.rect) {
			continue
		}
		for _, s := range sn.resolve(c) {
			if !s.At.Before(from) && !s.At.After(to) && r.Contains(s.Pos) {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MMSI != out[j].MMSI {
			return out[i].MMSI < out[j].MMSI
		}
		return out[i].At.Before(out[j].At)
	})
	return out
}

// NearestVessels returns up to k distinct vessels with a sample within tol
// of the instant `at`, ordered by the distance of that sample to p.
//
// The search runs over the snapshot's per-vessel time-chunk directory,
// not the raw point R-tree: chunks whose time span misses the window are
// pruned outright (candidates pre-partitioned by time), the rest enter a
// best-first queue keyed by their rectangle's admissible lower-bound
// distance, and popping a chunk resolves it to the vessel's nearest
// in-window sample, re-queued at its true distance. A chunk of an
// already-emitted vessel is skipped without scanning. This replaces the
// old fetch-then-filter loop over the point R-tree, which re-fetched 4×
// more candidates each round and waded through hundreds of co-located
// same-vessel samples — ms-range where this is µs-range (BenchmarkQueryNearest).
func (sn *Snapshot) NearestVessels(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	if k <= 0 || len(sn.chunks) == 0 {
		return nil
	}
	// time.Time.Sub saturates, so the max-duration tolerance used for
	// time-agnostic searches admits every dt without overflow.
	admit := func(t time.Time) bool {
		dt := t.Sub(at)
		if dt < 0 {
			dt = -dt
		}
		return dt <= tol
	}
	q := make(nvQueue, 0, 64)
	for i := range sn.chunks {
		c := &sn.chunks[i]
		// Chunk-level time pruning: the nearest instant of [from, to]
		// to `at` must be admissible.
		switch {
		case at.Before(c.from):
			if c.from.Sub(at) > tol {
				continue
			}
		case at.After(c.to):
			if at.Sub(c.to) > tol {
				continue
			}
		}
		q = append(q, nvEntry{dist: c.rect.DistanceTo(p), chunk: i, mmsi: c.mmsi})
	}
	heap.Init(&q)
	seen := make(map[uint32]bool, k)
	out := make([]model.VesselState, 0, k)
	for q.Len() > 0 && len(out) < k {
		e := heap.Pop(&q).(nvEntry)
		if seen[e.mmsi] {
			continue
		}
		if e.chunk < 0 { // resolved: this is the vessel's nearest admissible sample
			seen[e.mmsi] = true
			out = append(out, e.state)
			continue
		}
		// Resolving an evicted chunk pages it in here — and only here:
		// chunks whose rectangle lower bound never reaches the front of
		// the queue are never read back.
		c := &sn.chunks[e.chunk]
		var best model.VesselState
		found, bd := false, math.Inf(1)
		for _, s := range sn.resolve(c) {
			if !admit(s.At) {
				continue
			}
			if d := geo.Distance(p, s.Pos); d < bd {
				best, bd, found = s, d, true
			}
		}
		if found {
			heap.Push(&q, nvEntry{dist: bd, chunk: -1, state: best, mmsi: c.mmsi})
		}
	}
	return out
}

// nvEntry is a best-first queue entry of NearestVessels: an unresolved
// chunk (rect lower bound) or a resolved sample (true distance).
type nvEntry struct {
	dist  float64
	chunk int // chunk index, or -1 once resolved
	state model.VesselState
	mmsi  uint32
}

type nvQueue []nvEntry

func (q nvQueue) Len() int           { return len(q) }
func (q nvQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nvQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nvQueue) Push(x any)        { *q = append(*q, x.(nvEntry)) }
func (q *nvQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// --- live layer ---------------------------------------------------------------

// Live maintains the current picture: the latest state per vessel under a
// grid index for range and proximity queries over "now".
type Live struct {
	mu      sync.RWMutex
	latest  map[uint32]model.VesselState
	grid    *index.GridIndex
	sink    Sink
	sinkErr error
}

// NewLive returns an empty live layer with the given index cell size.
func NewLive(cellDeg float64) *Live {
	return &Live{
		latest: make(map[uint32]model.VesselState),
		grid:   index.NewGridIndex(cellDeg),
	}
}

// Attach installs a persistence sink receiving every subsequent Update —
// a full-rate journal of the live picture, unlike the Store's
// post-synopsis archive stream (nil detaches). Same contract as
// Store.Attach: errors park in SinkErr, a blocking sink backpressures.
func (l *Live) Attach(s Sink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = s
}

// SinkErr returns the first error the attached sink reported.
func (l *Live) SinkErr() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sinkErr
}

// Update replaces the vessel's current state.
func (l *Live) Update(s model.VesselState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.latest[s.MMSI]; ok {
		l.grid.Remove(prev.Pos, uint64(s.MMSI))
	}
	l.latest[s.MMSI] = s
	l.grid.Insert(index.Item{Pos: s.Pos, ID: uint64(s.MMSI)})
	if l.sink != nil {
		if err := l.sink.Append(s); err != nil && l.sinkErr == nil {
			l.sinkErr = err
		}
	}
}

// Get returns the vessel's current state.
func (l *Live) Get(mmsi uint32) (model.VesselState, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, ok := l.latest[mmsi]
	return s, ok
}

// Count returns the number of tracked vessels.
func (l *Live) Count() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.latest)
}

// MMSIs returns the sorted identifiers of the tracked vessels — the
// distinct-count read stats aggregation uses (O(vessels) integers, no
// state copies).
func (l *Live) MMSIs() []uint32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]uint32, 0, len(l.latest))
	for m := range l.latest {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InRect returns the current states inside the box, ordered by MMSI.
func (l *Live) InRect(r geo.Rect) []model.VesselState {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []model.VesselState
	for _, it := range l.grid.Search(r, nil) {
		out = append(out, l.latest[uint32(it.ID)])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
	return out
}

// Nearest returns the k vessels currently closest to p.
func (l *Live) Nearest(p geo.Point, k int) []model.VesselState {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []model.VesselState
	for _, it := range l.grid.Nearest(p, k) {
		out = append(out, l.latest[uint32(it.ID)])
	}
	return out
}

// Stale returns vessels whose latest report is older than maxAge relative
// to now — the live layer's view of "possibly gone dark".
func (l *Live) Stale(now time.Time, maxAge time.Duration) []model.VesselState {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []model.VesselState
	for _, s := range l.latest {
		if now.Sub(s.At) > maxAge {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
	return out
}

// --- persistence ----------------------------------------------------------------

const (
	snapshotMagic   = 0x4D415254 // "MART"
	snapshotVersion = 1
)

// WriteTo serialises the archive in a compact binary layout, paging any
// evicted spans back in (a snapshot must be complete, so unlike the
// query paths a page-back failure here is an error, not a degradation).
// It returns the number of bytes written.
func (st *Store) WriteTo(w io.Writer) (int64, error) {
	st.mu.RLock()
	// Capture per-vessel state so spilled chunks can be fetched without
	// holding the lock; a fully resident store captures only slice
	// references it then copies out (the common case: compaction folds and
	// snapshot writes run over never-evicted stores).
	type vcap struct {
		mmsi     uint32
		resident []model.VesselState
		chunks   []evChunk
	}
	caps := make([]vcap, 0, len(st.vessels))
	for m, ser := range st.vessels {
		vc := vcap{mmsi: m, chunks: append([]evChunk(nil), ser.chunks...)}
		vc.resident = make([]model.VesselState, len(ser.points))
		copy(vc.resident, ser.points)
		caps = append(caps, vc)
	}
	st.mu.RUnlock()
	sort.Slice(caps, func(i, j int) bool { return caps[i].mmsi < caps[j].mmsi })

	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(snapshotMagic)); err != nil {
		return n, err
	}
	if err := write(uint16(snapshotVersion)); err != nil {
		return n, err
	}
	if err := write(uint32(len(caps))); err != nil {
		return n, err
	}
	for _, vc := range caps {
		pts := vc.resident
		if len(vc.chunks) > 0 {
			parts := make([][]model.VesselState, 0, len(vc.chunks)+1)
			for _, c := range vc.chunks {
				cp, err := st.fetchChunk(vc.mmsi, c)
				if err != nil {
					return n, err
				}
				parts = append(parts, cp)
			}
			parts = append(parts, vc.resident)
			pts = mergeByTime(parts)
		}
		if err := write(vc.mmsi); err != nil {
			return n, err
		}
		if err := write(uint32(len(pts))); err != nil {
			return n, err
		}
		for _, p := range pts {
			rec := diskRecord{
				UnixNano:  p.At.UnixNano(),
				Lat:       p.Pos.Lat,
				Lon:       p.Pos.Lon,
				SpeedCKn:  uint16(math.Round(clampF(p.SpeedKn, 0, 655.35) * 100)),
				CourseCDg: uint16(math.Round(clampF(p.CourseDeg, 0, 655.35) * 100)),
				Status:    uint8(p.Status),
			}
			if err := write(rec); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// diskRecord is the on-disk point layout: 27 bytes per point.
type diskRecord struct {
	UnixNano  int64
	Lat, Lon  float64
	SpeedCKn  uint16 // centi-knots
	CourseCDg uint16 // centi-degrees
	Status    uint8
}

// Load deserialises an archive produced by WriteTo into the store. Its
// semantics are APPEND-MERGE, not replace: every loaded point is inserted
// into per-vessel time order alongside whatever the store already holds,
// existing points are never removed or overwritten, and loading the same
// archive twice therefore duplicates every point (Len doubles). Load into
// a fresh New() store for replace semantics; TestLoadMergesIntoNonEmpty
// pins this contract. Loaded points are forwarded to an attached Sink
// like any other append — load before Attach to avoid re-persisting an
// archive you just read. It returns the number of points read. (Named
// Load rather than ReadFrom to avoid colliding with io.ReaderFrom's
// contract, which counts bytes, not points.)
func (st *Store) Load(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	var magic uint32
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return 0, fmt.Errorf("tstore: reading magic: %w", err)
	}
	if magic != snapshotMagic {
		return 0, fmt.Errorf("tstore: bad magic %08x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return 0, err
	}
	if version != snapshotVersion {
		return 0, fmt.Errorf("tstore: unsupported version %d", version)
	}
	var nVessels uint32
	if err := binary.Read(br, binary.LittleEndian, &nVessels); err != nil {
		return 0, err
	}
	total := 0
	for v := uint32(0); v < nVessels; v++ {
		var mmsi, nPoints uint32
		if err := binary.Read(br, binary.LittleEndian, &mmsi); err != nil {
			return total, err
		}
		if err := binary.Read(br, binary.LittleEndian, &nPoints); err != nil {
			return total, err
		}
		for i := uint32(0); i < nPoints; i++ {
			var rec diskRecord
			if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
				return total, fmt.Errorf("tstore: point %d of vessel %d: %w", i, mmsi, err)
			}
			st.Append(model.VesselState{
				MMSI:      mmsi,
				At:        time.Unix(0, rec.UnixNano).UTC(),
				Pos:       geo.Point{Lat: rec.Lat, Lon: rec.Lon},
				SpeedKn:   float64(rec.SpeedCKn) / 100,
				CourseDeg: float64(rec.CourseCDg) / 100,
				Status:    ais.NavStatus(rec.Status),
			})
			total++
		}
	}
	return total, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
