// Package maritime is the public facade of the library: a stable surface
// over the integrated maritime data integration and analysis
// infrastructure reproduced from Claramunt et al., "Maritime Data
// Integration and Analysis: Recent Progress and Research Challenges"
// (EDBT 2017).
//
// The facade re-exports the pieces an application composes:
//
//   - Pipeline — the Figure 2 infrastructure: ingest AIS, get quality
//     assessment, synopses, storage, event recognition, forecasting and
//     situation pictures (package internal/core).
//   - IngestEngine — the asynchronous, backpressure-aware sharded front
//     door over Pipeline for real AIS volumes (package internal/ingest).
//   - Simulator — the synthetic world standing in for live feeds
//     (package internal/sim).
//   - The AIS codec, geodesy primitives and analytic building blocks.
//
// # Building
//
// The module is self-contained (no external dependencies):
//
//	go build ./...
//	go test ./...
//	go test -race ./...   # the ingest engine is concurrent; keep it clean
//
// # Quick start (synchronous)
//
//	run, _ := maritime.Simulate(maritime.SimConfig{Seed: 1, NumVessels: 50, Duration: time.Hour})
//	p := maritime.NewPipeline(maritime.PipelineConfig{Zones: run.Config.World.Zones})
//	for i := range run.Positions {
//	    obs := &run.Positions[i]
//	    alerts := p.Ingest(obs.At, &obs.Report)
//	    for _, a := range alerts {
//	        fmt.Println(a)
//	    }
//	}
//
// # Sharded ingest (asynchronous)
//
// For multi-core scaling, feed the same stream through the ingest engine:
// reports are partitioned by MMSI across per-shard pipelines behind
// bounded queues (a saturated shard backpressures the submitter), batches
// amortise the pipeline lock, and alerts from all shards arrive merged on
// one channel:
//
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline: maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Shards:   8,
//	})
//	ctx := context.Background()
//	e.Start(ctx)
//	go func() {
//	    for i := range run.Positions {
//	        obs := &run.Positions[i]
//	        e.Ingest(ctx, obs.At, &obs.Report)
//	    }
//	    e.Close()
//	}()
//	for ev := range e.Alerts() { // closes once everything in flight drains
//	    fmt.Println(ev.Value)
//	}
//
// The engine produces the same alert multiset as the sequential Pipeline
// over the same input (per-vessel order is preserved end to end); see
// internal/ingest for the dataflow details and cmd/maritimed for a
// complete NMEA-to-alerts daemon built on it.
//
// # Persistence (durable archive)
//
// By default everything is in-memory. To make the archive survive
// restarts, open an archive directory and hand its backend to the
// engine: archived records stream through an asynchronous flush stage
// into a segmented, CRC32C-checksummed write-ahead log that is
// periodically compacted into snapshots. On the next start, OpenArchive
// recovers the persisted state (snapshot + WAL tail, truncating torn
// trailing writes at the last valid record) and Resume seeds the engine
// with it:
//
//	arch, err := maritime.OpenArchive(maritime.StoreConfig{Dir: "/var/lib/maritimed"})
//	if err != nil { ... }
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline: maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Backend:  arch.Backend, // async batched flush; queue bound + fsync policy in Flush
//	})
//	fmt.Printf("recovered %d records\n", e.Resume(arch.Store))
//	e.Start(ctx)
//	// ... feed it, drain Alerts ...
//	e.Wait()     // flush queue drained, backend synced
//	arch.Close() // archive is durable
//
// The same Backend interface has an in-memory implementation (NewMem)
// for tests, and any store can attach a flush stage directly via
// Store.Attach — see internal/store for the subsystem and cmd/maritimed
// (-data-dir) for the resume-on-restart daemon built on it.
//
// # Tiered storage (archives that exceed RAM)
//
// With a memory budget, the in-memory archive becomes a cache over the
// durable store: an eviction manager watches per-vessel heat (last
// append or read) and, past the budget, evicts the coldest vessels down
// to compact stubs — chunk directory, newest sample, counts — spilling
// their history as immutable objects. Every query kind keeps working
// over a partially evicted archive; reads page back only the chunks
// their window and box reach, singleflighted and block-cached:
//
//	objects, _ := maritime.NewFSObjects("/var/lib/maritimed-tier") // or any ObjectStore
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline:     maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Backend:      arch.Backend,       // durability (WAL) as before
//	    MemoryBudget: 256 << 20,          // resident points capped at ~256 MiB
//	    TierObjects:  objects,            // evicted chunks spill here
//	})
//	// ... ingest 4× the budget; queries stay exact throughout ...
//	fmt.Printf("%+v\n", e.TierStats())   // resident vs evicted, page-ins, spill volume
//
// The same ObjectStore can back the WAL itself (StoreConfig.Remote):
// sealed segments and snapshots migrate off local disk on seal, with the
// local copy deleted only after the upload is confirmed — a crash
// between seal and upload re-uploads on the next OpenArchive. maritimed
// wires both with -mem-budget and -remote-dir.
//
// # Querying (unified read surface)
//
// Every read — trajectory retrieval, space–time range, nearest vessel,
// the live picture, situation assembly, alert history, store stats —
// goes through one typed request against a QueryEngine. The ingest
// engine exposes its shards directly:
//
//	res, err := e.Query(maritime.QueryRequest{
//	    Kind: maritime.QuerySpaceTime,
//	    Box:  &maritime.QueryBox{MinLat: 42, MinLon: 4, MaxLat: 44, MaxLon: 9},
//	    From: t0, To: t1,
//	})
//	for _, s := range res.States { fmt.Println(s.MMSI, s.At, s.Lat, s.Lon) }
//
// To answer from a durable archive too — one query surface over the
// running picture plus everything recovered from disk, merged and
// deduplicated on (MMSI, timestamp) — compose sources explicitly:
//
//	arch, _ := maritime.OpenArchiveReadOnly(maritime.StoreConfig{Dir: dir})
//	qe := maritime.NewQueryEngine(
//	    maritime.NewLiveQuerySource(e.Sharded()),
//	    maritime.NewStoreQuerySource("archive", arch.Store),
//	)
//	res, _ := qe.Query(maritime.QueryRequest{Kind: maritime.QueryTrajectory, MMSI: 235098765})
//
// The same surface serves over HTTP (cmd/maritimed -http): POST a
// QueryRequest to /v1/query — or use the per-kind GET routes — and a
// QueryClient is a drop-in remote Executor:
//
//	c := maritime.NewQueryClient("localhost:8080")
//	res, _ := c.Query(maritime.QueryRequest{Kind: maritime.QueryStats})
//
// Results have a stable JSON encoding, so the HTTP answer and a locally
// marshalled in-process answer are byte-identical; cmd/msaquery is the
// CLI form of this client. One-shot client calls take a context
// (QueryContext) and retry transient connection errors with exponential
// backoff (Client.Retry).
//
// # Subscriptions (standing queries)
//
// Every streamable request kind also runs as a standing query: the same
// typed QueryRequest, subscribed instead of executed, delivers its
// incremental results as they happen — a spacetime box watch, a
// per-vessel follow, an alert feed or a periodically assembled situation
// ticker. The ingest engine publishes every record that reaches the
// archive (and every alert) to bounded per-subscriber queues; a slow
// consumer drops updates (counted, surfaced in QueryHub metrics and on
// the subscription), never blocking ingest:
//
//	sub, _ := e.Subscribe(maritime.QueryRequest{
//	    Kind: maritime.QuerySpaceTime,
//	    Box:  &maritime.QueryBox{MinLat: 42, MinLon: 4, MaxLat: 44, MaxLon: 9},
//	}, maritime.QuerySubOptions{})
//	for u := range sub.Updates() {
//	    fmt.Println(u.Seq, u.State.MMSI, u.State.Lat, u.State.Lon)
//	}
//
// Remotely the same subscription rides /v1/stream as NDJSON (maritimed
// -http serves it): QueryClient.Subscribe is the remote twin, with
// heartbeats absorbed into transport bookkeeping and automatic
// resume-from-sequence when the connection blips. cmd/msaquery -watch /
// -follow are the CLI forms.
//
// # Federation (daemons as sources)
//
// A QueryClient is itself a QuerySource, so a remote daemon's picture
// composes into a local engine like any store — merged and deduplicated
// on (MMSI, timestamp), one hop deep (peers answer locally, so
// mutually-peered daemons cannot loop), and degraded rather than fatal
// when the peer is down (the error surfaces in stats):
//
//	peer := maritime.NewQueryClient("peer-a:8080") // also a QuerySource
//	qe := maritime.NewQueryEngine(maritime.NewLiveQuerySource(e.Sharded()), peer)
//
// maritimed -peer URL wires exactly this into a running daemon.
//
// # Track intelligence (fusion, forecasting, integrity)
//
// Three more query kinds answer per-vessel inference: track (the fused
// Kalman state with its covariance error ellipse), predict (position at
// t+Δ with a confidence envelope; learned route prior with
// dead-reckoning fallback) and quality (a Beta-Bernoulli data-integrity
// score with per-rule issue counts). With IngestConfig.Track set, an
// online stage in each shard's dataflow maintains that state
// incrementally — and fuses identity-less radar contacts into it via
// IngestEngine.IngestDetections; without it, the engine derives the
// same answers by replaying the archived trajectory, so the kinds work
// against any source (and byte-identically across tiering eviction):
//
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline: maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Track:    &maritime.TrackConfig{}, // online stage on (zero value = defaults)
//	})
//	// ... ingest ...
//	res, _ := e.Query(maritime.QueryRequest{
//	    Kind: maritime.QueryPredict, MMSI: 235098765,
//	    Horizon: maritime.QueryDuration(15 * time.Minute),
//	})
//	fmt.Println(res.Prediction.Lat, res.Prediction.Lon, res.Prediction.Method)
//
// Subscribed instead of executed, the same kinds become tickers: a
// predict subscription pushes a fresh dead-reckoned (or route-model)
// fix every tick, showing expected motion between AIS reports. msaquery
// -track / -predict / -quality are the CLI forms (-watch predict for
// the ticker).
//
// # Anomaly detection (behavior profiles, episodes, open-world CEP)
//
// The anomalies query kind scores each vessel against its own history: a
// sliding-window distribution shift over speed, heading and position
// (0 = behaving like itself), reporting-gap bookkeeping and the vessel's
// recent stop/move episodes. With IngestConfig.Anomaly set, a streaming
// stage maintains the profiles online, materialises each episode into a
// semantic store the moment it closes, and continuously matches
// reporting gaps across vessels for physically feasible covert meetings
// (possible-rendezvous alerts join the engine's alert stream); without
// it, the engine replays the archived trajectory through the same fold,
// so answers are byte-identical either way:
//
//	sem := maritime.NewSemanticStore()
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline: maritime.PipelineConfig{Zones: world.Zones},
//	    Anomaly:  &maritime.AnomalyConfig{Semantic: sem, Zones: world.Zones},
//	})
//	// ... ingest ...
//	res, _ := e.Query(maritime.QueryRequest{Kind: maritime.QueryAnomalies, Limit: 10})
//	for _, v := range res.Anomalies.Ranked {
//	    fmt.Println(v.MMSI, v.Score, v.Gaps)
//	}
//
// Subscribed (QueryAnomalies with no MMSI, or per-vessel with one), the
// kind becomes a ticker: a ranked deviation board or one vessel's score
// pushed every tick. msaquery -anomalies / -watch anomalies are the CLI
// forms; maritimed -anomaly turns the stage on in the daemon.
package maritime

import (
	"context"
	"time"

	"repro/internal/ais"
	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/tier"
	"repro/internal/track"
	"repro/internal/tstore"
	"repro/internal/va"
	"repro/internal/zones"
)

// Geodesy.
type (
	// Point is a geographic position in degrees.
	Point = geo.Point
	// Rect is a geographic bounding box.
	Rect = geo.Rect
	// Velocity is speed and course over ground.
	Velocity = geo.Velocity
)

// AIS wire format.
type (
	// PositionReport is a decoded AIS position message (types 1–3, 18).
	PositionReport = ais.PositionReport
	// StaticVoyage is a decoded AIS type 5 message.
	StaticVoyage = ais.StaticVoyage
	// AISDecoder assembles and decodes NMEA AIVDM sentences.
	AISDecoder = ais.Decoder
)

// NewAISDecoder returns a decoder for an NMEA sentence stream.
func NewAISDecoder() *AISDecoder { return ais.NewDecoder() }

// Pipeline: the paper's Figure 2 infrastructure.
type (
	// Pipeline is the integrated processing pipeline.
	Pipeline = core.Pipeline
	// PipelineConfig parameterises a pipeline.
	PipelineConfig = core.Config
	// ShardedPipeline scales ingest across cores by fleet sharding.
	ShardedPipeline = core.Sharded
	// Alert is one recognised event.
	Alert = events.Alert
)

// NewPipeline builds the integrated pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline { return core.New(cfg) }

// NewShardedPipeline builds an n-way sharded pipeline.
func NewShardedPipeline(cfg PipelineConfig, n int) *ShardedPipeline { return core.NewSharded(cfg, n) }

// Asynchronous ingest: the backpressure-aware sharded dataflow.
type (
	// IngestEngine is the async front door: decode workers → partition by
	// MMSI → per-shard batched pipelines → merged alerts.
	IngestEngine = ingest.Engine
	// IngestConfig parameterises the engine (shards, buffers, batch size).
	IngestConfig = ingest.Config
	// IngestLine is one raw NMEA sentence with its receive timestamp, the
	// input unit of the engine's decode front-end.
	IngestLine = ingest.Line
	// TimedReport pairs a position report with its receive time — the unit
	// of batched ingest (Pipeline.IngestBatch, ShardedPipeline.IngestBatch).
	TimedReport = core.TimedReport
)

// NewIngestEngine builds the async sharded ingest engine (call Start, then
// Ingest or StartLines; drain Alerts until it closes).
func NewIngestEngine(cfg IngestConfig) *IngestEngine { return ingest.New(cfg) }

// Simulation: the synthetic maritime world.
type (
	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimRun is a completed simulation with streams and ground truth.
	SimRun = sim.Run
	// World is the static stage (ports, routes, zones, stations).
	World = sim.World
)

// Simulate executes a scenario.
func Simulate(cfg SimConfig) (*SimRun, error) { return sim.Simulate(cfg) }

// MediterraneanWorld builds the default regional stage.
func MediterraneanWorld(seed int64) *World { return sim.MediterraneanWorld(seed) }

// GlobalWorld builds the planetary stage of Figure 1.
func GlobalWorld(seed int64) *World { return sim.GlobalWorld(seed) }

// Storage.
type (
	// Store is the trajectory archive.
	Store = tstore.Store
	// Live is the current-picture layer.
	Live = tstore.Live
	// Trajectory is a vessel's time-ordered state sequence.
	Trajectory = model.Trajectory
	// VesselState is one timestamped kinematic sample.
	VesselState = model.VesselState
	// StoreSink receives appended records — the hook persistence attaches
	// to (Store.Attach / Live.Attach).
	StoreSink = tstore.Sink
)

// NewStore returns an empty trajectory archive.
func NewStore() *Store { return tstore.New() }

// Persistence: the durable archive subsystem (segmented WAL + snapshots).
type (
	// StoreBackend is the pluggable persistence target for vessel states.
	StoreBackend = store.Backend
	// StoreConfig parameterises an on-disk archive (directory, segment
	// cap, fsync policy, compaction cadence).
	StoreConfig = store.Config
	// SyncPolicy selects when the disk backend fsyncs.
	SyncPolicy = store.SyncPolicy
	// Archive is an opened on-disk archive: recovered store + backend.
	Archive = store.Archive
	// RecoverStats describes what OpenArchive found on disk.
	RecoverStats = store.RecoverStats
	// DiskBackend is the durable WAL+snapshot backend.
	DiskBackend = store.Disk
	// MemBackend is the in-memory backend (tests, ephemeral runs).
	MemBackend = store.Mem
	// FlushConfig parameterises the asynchronous flush stage between an
	// ingesting store and a backend.
	FlushConfig = store.FlushConfig
	// Flusher is the asynchronous flush stage; it implements StoreSink.
	Flusher = store.Flusher
)

// Tiered storage: the exceeding-RAM layer — an object store cold bytes
// migrate to, and an eviction manager that keeps the in-memory archive
// inside a budget (package internal/store + internal/tier).
type (
	// ObjectStore is the minimal immutable-blob interface sealed WAL
	// segments, snapshots and evicted trajectory chunks migrate to
	// (atomic Put, immutable objects, prefix List).
	ObjectStore = store.ObjectStore
	// FSObjectStore is the local-filesystem ObjectStore reference
	// implementation (atomic write-temp + rename Puts).
	FSObjectStore = store.FSObjects
	// BlockCache is the byte-bounded, singleflight read cache object
	// fetches go through.
	BlockCache = store.BlockCache
	// TierManager evicts the coldest vessels down to compact stubs when
	// the resident archive exceeds its memory budget; reads page them
	// back transparently.
	TierManager = tier.Manager
	// TierConfig parameterises a TierManager (budget, check cadence,
	// spill object store).
	TierConfig = tier.Config
	// TierStats snapshots the tiered archive: resident vs evicted points
	// and vessels, evictions, page-ins, spill volume, cache behaviour.
	TierStats = tier.Stats
	// TierChunkStore spills evicted runs as immutable objects and pages
	// them back through a block cache; it implements StoreChunkStore.
	TierChunkStore = tier.ChunkStore
	// StoreChunkStore is the paging hook a trajectory Store evicts
	// through (tstore.ChunkStore).
	StoreChunkStore = tstore.ChunkStore
)

// NewFSObjects opens (creating if needed) a filesystem object store
// rooted at dir, with fully durable Puts — the store migrated WAL
// segments and snapshots require.
func NewFSObjects(dir string) (*FSObjectStore, error) { return store.NewFSObjects(dir) }

// NewFSObjectsCache is NewFSObjects without fsync: fit for paging
// caches like tier spill chunks (reconstructable after a crash), unfit
// for WAL migration.
func NewFSObjectsCache(dir string) (*FSObjectStore, error) { return store.NewFSObjectsCache(dir) }

// NewTierManager builds the eviction manager over one or more trajectory
// stores, attaches its spill store to them, garbage-collects stale spill
// objects and starts the budget loop. The ingest engine wires this up
// itself from IngestConfig.MemoryBudget/TierObjects; use this directly
// only when composing stores by hand.
func NewTierManager(cfg TierConfig, stores ...*Store) (*TierManager, error) {
	return tier.NewManager(cfg, stores...)
}

// Fsync policies for StoreConfig.Sync.
const (
	SyncRotate = store.SyncRotate
	SyncAlways = store.SyncAlways
	SyncNever  = store.SyncNever
)

// OpenArchive opens (creating if needed) an archive directory and
// recovers the persisted state: newest snapshot plus WAL tail, with torn
// trailing records truncated at the last valid record. The directory is
// flock-protected: a second concurrent writer fails fast.
func OpenArchive(cfg StoreConfig) (*Archive, error) { return store.Open(cfg) }

// OpenArchiveReadOnly recovers the persisted state without mutating the
// directory or taking the writer lock — safe against a directory a live
// daemon owns (replay stops at the writer's in-flight tail).
func OpenArchiveReadOnly(cfg StoreConfig) (*Archive, error) { return store.OpenReadOnly(cfg) }

// NewMem returns an in-memory storage backend.
func NewMem() *MemBackend { return store.NewMem() }

// NewFlusher starts an asynchronous flush stage over a backend; attach
// it to a Store (or Live) to persist its appends without putting disk
// latency on the ingest path.
func NewFlusher(b StoreBackend, cfg FlushConfig) *Flusher { return store.NewFlusher(b, cfg) }

// Unified query surface: one typed read API over live + archive,
// servable over HTTP (package internal/query).
type (
	// QueryRequest is one typed read (kind + kind-specific fields).
	QueryRequest = query.Request
	// QueryResult is the answer, with a stable JSON encoding.
	QueryResult = query.Result
	// QueryEngine executes requests against one or more sources, merging
	// and deduplicating on (MMSI, timestamp).
	QueryEngine = query.Engine
	// QuerySource is one store an engine answers from; implement it to
	// plug a new backend into the whole read surface.
	QuerySource = query.Source
	// QueryKind selects what a request retrieves.
	QueryKind = query.Kind
	// QueryBox is the wire form of a bounding box (validated).
	QueryBox = query.Box
	// QueryServer serves the surface over HTTP (/v1/query + GET routes +
	// /v1/stream standing queries).
	QueryServer = query.Server
	// QueryClient answers requests by calling a remote QueryServer; it is
	// also a QuerySource (federation member) and a QuerySubscriber.
	QueryClient = query.Client
	// QueryExecutor is anything that answers a QueryRequest: an engine,
	// an ingest engine, or a client.
	QueryExecutor = query.Executor
	// QueryRetryPolicy is the client's backoff over transient transport
	// errors.
	QueryRetryPolicy = query.RetryPolicy

	// QuerySubscription is one standing query: read Updates until closed.
	QuerySubscription = query.Subscription
	// QueryUpdate is one pushed increment of a standing query.
	QueryUpdate = query.Update
	// QueryUpdateKind discriminates a pushed update's payload.
	QueryUpdateKind = query.UpdateKind
	// QuerySubOptions tunes a subscription (queue bound, resume sequence,
	// heartbeat and situation-tick cadence).
	QuerySubOptions = query.SubOptions
	// QuerySubscriber turns requests into standing queries: the ingest
	// engine, a QueryHub/Streamer, or a QueryClient.
	QuerySubscriber = query.Subscriber
	// QueryHub is the publish/subscribe core: bounded per-subscriber
	// queues, slow-consumer drop accounting, replay ring for resume.
	QueryHub = query.Hub
	// QueryHubConfig parameterises a hub.
	QueryHubConfig = query.HubConfig
	// QueryStreamRequest is the wire form of a /v1/stream subscription.
	QueryStreamRequest = query.StreamRequest
	// QueryPeerSource is a source backed by another daemon; engines skip
	// peers on Local requests (the one-hop federation guard).
	QueryPeerSource = query.PeerSource
)

// The update kinds a subscription delivers besides ticks; a ticker
// subscription's updates carry the request's QueryKind.
const (
	QueryUpdateState     = query.UpdateState
	QueryUpdateAlert     = query.UpdateAlert
	QueryUpdateHeartbeat = query.UpdateHeartbeat
)

// The query kinds.
const (
	QueryTrajectory   = query.KindTrajectory
	QuerySpaceTime    = query.KindSpaceTime
	QueryNearest      = query.KindNearest
	QueryLivePicture  = query.KindLivePicture
	QuerySituation    = query.KindSituation
	QueryAlertHistory = query.KindAlertHistory
	QueryStats        = query.KindStats
	QueryTrack        = query.KindTrack
	QueryPredict      = query.KindPredict
	QueryQuality      = query.KindQuality
	QueryAnomalies    = query.KindAnomalies
)

// NewQueryEngine builds a query engine over the given sources.
func NewQueryEngine(sources ...QuerySource) *QueryEngine { return query.NewEngine(sources...) }

// NewLiveQuerySource exposes a sharded pipeline as a query source
// (cross-shard fan-out with consistent per-shard snapshots).
func NewLiveQuerySource(s *ShardedPipeline) QuerySource { return query.NewLiveSource(s) }

// NewStoreQuerySource exposes a trajectory archive as a query source.
func NewStoreQuerySource(name string, st *Store) QuerySource { return query.NewStoreSource(name, st) }

// NewQueryServer builds the HTTP handler serving an executor. When the
// executor also implements QuerySubscriber (the ingest engine does),
// /v1/stream serves standing queries over it.
func NewQueryServer(exec QueryExecutor) *QueryServer { return query.NewServer(exec) }

// NewQueryClient builds a client for a running query server
// ("host:port" or a full URL). The client is a remote QueryExecutor, a
// remote QuerySubscriber (Subscribe over /v1/stream with automatic
// resume) and a QuerySource federation member (maritimed -peer).
func NewQueryClient(base string) *QueryClient { return query.NewClient(base) }

// NewQueryHub builds a standalone publish/subscribe hub (the ingest
// engine owns one already — Engine.Hub / Engine.Subscribe).
func NewQueryHub(cfg QueryHubConfig) *QueryHub { return query.NewHub(cfg) }

// ParseQueryBox parses and validates "minLat,minLon,maxLat,maxLon".
func ParseQueryBox(s string) (QueryBox, error) { return query.ParseBox(s) }

// Track intelligence: online per-vessel fusion, forecasting and
// integrity scoring behind the track/predict/quality query kinds
// (packages internal/track and internal/query).
type (
	// QueryDuration is a JSON-friendly duration ("15m") used by
	// QueryRequest.Horizon and the prediction wire form.
	QueryDuration = query.Duration
	// TrackState is a vessel's fused Kalman state with its covariance
	// error ellipse — the track kind's answer.
	TrackState = query.TrackState
	// Prediction is a position forecast with a confidence envelope — the
	// predict kind's answer.
	Prediction = query.Prediction
	// QualityScore is a vessel's data-integrity profile — the quality
	// kind's answer.
	QualityScore = query.QualityScore
	// TrackConfig parameterises the online track stage; assign a
	// (possibly zero) value to IngestConfig.Track to enable it.
	TrackConfig = track.Config
	// Detection is one identity-less sensor measurement (radar contact)
	// for IngestEngine.IngestDetections.
	Detection = track.Detection
	// TrackStages is the sharded online tracker, readable directly.
	TrackStages = track.Stages
)

// Streaming anomaly lane: online behavior profiles, incremental
// stop/move episode extraction and continuous open-world CEP behind the
// anomalies query kind (packages internal/anomaly, internal/query and
// internal/semstore).
type (
	// AnomalyConfig parameterises the streaming anomaly lane; assign a
	// (possibly zero) value to IngestConfig.Anomaly to enable it.
	AnomalyConfig = anomaly.Config
	// AnomalyStages is the sharded online anomaly stage, readable
	// directly (IngestEngine.Anomalies).
	AnomalyStages = anomaly.Stages
	// VesselAnomaly is one vessel's deviation report — distribution
	// shift against its own history, reporting gaps, recent episodes.
	VesselAnomaly = query.VesselAnomaly
	// AnomalyReport is the anomalies kind's answer (per-vessel or
	// fleet-ranked).
	AnomalyReport = query.AnomalyReport
	// AnomalyEpisode is the wire form of one stop/move episode.
	AnomalyEpisode = query.EpisodeInfo
	// AnomalyGap is the wire form of one reporting gap.
	AnomalyGap = query.GapInfo
	// SemanticStore is the triple store incrementally closed episodes
	// materialise into (AnomalyConfig.Semantic).
	SemanticStore = semstore.Store
)

// NewSemanticStore returns an empty semantic triple store.
func NewSemanticStore() *SemanticStore { return semstore.NewStore() }

// Observability: the unified metrics registry and per-request trace
// (package internal/obs). Hand an ObsRegistry to IngestConfig.Obs and
// every stage of the dataflow — ingest, store, tier, query, hub —
// reports through it; QueryServer.ServeMetrics exposes it as GET
// /metrics (Prometheus text) and GET /debug/vars (JSON).
type (
	// ObsRegistry holds named metrics and renders them for scraping.
	ObsRegistry = obs.Registry
	// ObsCounter is a monotonically increasing metric.
	ObsCounter = obs.Counter
	// ObsGauge is a metric that can go up and down.
	ObsGauge = obs.Gauge
	// ObsHistogram is a lock-free bounded-bucket latency histogram with
	// p50/p90/p99 snapshots.
	ObsHistogram = obs.Histogram
	// ObsHistSnapshot is a point-in-time histogram summary.
	ObsHistSnapshot = obs.HistSnapshot
	// ObsTrace records named stage spans for one request; carry it with
	// WithObsTrace and the query engine fills it in.
	ObsTrace = obs.Trace
	// ObsSpan is one recorded stage of a trace.
	ObsSpan = obs.Span
	// QueryTraceSpan is the wire form of one stage span on QueryResult
	// (populated when QueryRequest.Trace is set).
	QueryTraceSpan = query.TraceSpan
	// ObsFlight is the always-on black-box flight recorder: a fixed-size
	// ring of structured events every layer writes its load-bearing
	// transitions into. Assign one to IngestConfig.Flight and serve it
	// with QueryServer.ServeFlight (GET /debug/flight).
	ObsFlight = obs.Flight
	// ObsFlightEvent is one recorded flight transition.
	ObsFlightEvent = obs.FlightEvent
	// ObsFlightFilter selects flight events for dumps and scrapes.
	ObsFlightFilter = obs.FlightFilter
	// ObsHealth aggregates per-layer readiness checks into the /readyz
	// verdict (QueryServer.ServeHealth; IngestEngine.Health builds one
	// over a running engine).
	ObsHealth = obs.Health
	// ObsHealthVerdict is one readiness evaluation with per-check detail.
	ObsHealthVerdict = obs.HealthVerdict
	// IngestHealthOptions tunes IngestEngine.Health's thresholds.
	IngestHealthOptions = ingest.HealthOptions
)

// NewObsFlight builds a flight recorder ring of at least size events
// (rounded up to a power of two; default 1024 when size <= 0).
func NewObsFlight(size int) *ObsFlight { return obs.NewFlight(size) }

// RegisterObsBuildInfo exports the binary's build identity
// (maritime_build_info{revision,go}) and process uptime on reg,
// returning the identity for startup logging.
func RegisterObsBuildInfo(reg *ObsRegistry, start time.Time) (revision, goVersion string) {
	return obs.RegisterBuildInfo(reg, start)
}

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTrace starts an empty per-request trace.
func NewObsTrace() *ObsTrace { return obs.NewTrace() }

// WithObsTrace attaches a trace to a context; QueryEngine.QueryContext
// records its stage spans into it.
func WithObsTrace(ctx context.Context, tr *ObsTrace) context.Context { return obs.WithTrace(ctx, tr) }

// ObsTraceFromContext returns the trace carried by ctx, or nil.
func ObsTraceFromContext(ctx context.Context) *ObsTrace { return obs.FromContext(ctx) }

// Forecasting.
type (
	// Predictor forecasts future vessel positions.
	Predictor = forecast.Predictor
	// RouteModel is the patterns-of-life predictor.
	RouteModel = forecast.RouteModel
)

// NewRouteModel returns an untrained patterns-of-life model.
func NewRouteModel(cellDeg float64) *RouteModel { return forecast.NewRouteModel(cellDeg) }

// Synopses.
type (
	// Compressor reduces trajectories to critical points.
	Compressor = synopsis.Compressor
	// CompressionReport quantifies a compression outcome.
	CompressionReport = synopsis.Report
)

// Zones.
type (
	// Zone is a named geographic context area.
	Zone = zones.Zone
	// ZoneSet is a queryable zone collection.
	ZoneSet = zones.ZoneSet
)

// Visual analytics.
type (
	// Situation is a computed operational picture.
	Situation = va.Situation
	// Density is a spatial histogram surface.
	Density = va.Density
)
