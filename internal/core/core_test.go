package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/va"
	"repro/internal/weather"
)

func runScenario(t *testing.T, cfg sim.Config) *sim.Run {
	t.Helper()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func feed(p *Pipeline, run *sim.Run) {
	for i := range run.Positions {
		obs := &run.Positions[i]
		p.Ingest(obs.At, &obs.Report)
	}
	for i := range run.Statics {
		so := &run.Statics[i]
		p.IngestStatic(so.At, &so.Msg)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	simCfg := sim.Config{Seed: 5, NumVessels: 80, Duration: 2 * time.Hour, TickSec: 2}
	simCfg.DefaultAnomalyRates()
	run := runScenario(t, simCfg)

	p := New(Config{
		Zones:              run.Config.World.Zones,
		SynopsisToleranceM: 60,
	})
	feed(p, run)

	snap := p.Metrics.Snapshot()
	if snap.Ingested == 0 || snap.Ingested != int64(len(run.Positions)) {
		t.Fatalf("ingested %d of %d", snap.Ingested, len(run.Positions))
	}
	if snap.Archived == 0 || snap.Archived >= snap.Ingested {
		t.Fatalf("synopsis filter pass-through: %d of %d", snap.Archived, snap.Ingested)
	}
	if ratio := p.CompressionRatio(); ratio < 0.3 {
		t.Errorf("compression ratio %.2f suspiciously low", ratio)
	}
	if p.Live.Count() == 0 {
		t.Error("live picture empty")
	}
	if p.Store.VesselCount() == 0 {
		t.Error("archive empty")
	}
	if snap.Alerts == 0 {
		t.Error("no alerts despite injected anomalies")
	}
	if snap.StaticChecked != int64(len(run.Statics)) {
		t.Errorf("static checked %d of %d", snap.StaticChecked, len(run.Statics))
	}
}

func TestPipelineDetectsInjectedDarkness(t *testing.T) {
	simCfg := sim.Config{
		Seed: 9, NumVessels: 100, Duration: 3 * time.Hour, TickSec: 2,
		DarkShipFrac: 0.27, DarkTimeFrac: 0.12,
	}
	run := runScenario(t, simCfg)
	p := New(Config{Zones: run.Config.World.Zones, DarkThreshold: 10 * time.Minute})
	feed(p, run)

	var truths []events.TruthWindow
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other,
			Start: e.Start, End: e.End,
		})
	}
	r := events.Score(events.KindDark, p.Alerts(), truths, 5*time.Minute)
	if r.Truth == 0 {
		t.Skip("no dark events with this seed")
	}
	if r.Recall < 0.6 {
		t.Errorf("dark recall %.2f (tp=%d fn=%d)", r.Recall, r.TP, r.FN)
	}
	t.Logf("dark: truth=%d alerts=%d precision=%.2f recall=%.2f", r.Truth, r.Alerts, r.Precision, r.Recall)
}

func TestPipelineSituationAndForecast(t *testing.T) {
	simCfg := sim.Config{Seed: 11, NumVessels: 60, Duration: 2 * time.Hour, TickSec: 2}
	run := runScenario(t, simCfg)
	p := New(Config{Zones: run.Config.World.Zones})
	feed(p, run)

	end := run.Config.Start.Add(run.Config.Duration)
	s := p.Situation(end, run.Config.World.Bounds, 10, 20)
	if len(s.Vessels) == 0 {
		t.Fatal("situation sees no vessels")
	}
	if s.Density.Total != len(s.Vessels) {
		t.Errorf("density total %d vs vessels %d", s.Density.Total, len(s.Vessels))
	}

	if n := p.TrainForecaster(0.05); n == 0 {
		t.Fatal("forecaster trained on nothing")
	}
	// Forecast every vessel 30 minutes out: predictions must be finite
	// and within plausible reach.
	horizon := 30 * time.Minute
	ok := 0
	for _, mmsi := range p.Store.MMSIs() {
		pred, good := p.Forecast(mmsi, horizon)
		if !good {
			continue
		}
		ok++
		last, _ := p.Live.Get(mmsi)
		maxReach := 40 * geo.Knot * horizon.Seconds()
		if d := geo.Distance(last.Pos, pred); d > maxReach {
			t.Fatalf("vessel %d forecast %.0f m away (max reach %.0f)", mmsi, d, maxReach)
		}
	}
	if ok == 0 {
		t.Error("no forecasts produced")
	}
}

func TestPipelineEnrichment(t *testing.T) {
	world := sim.MediterraneanWorld(1)
	pv := weather.NewProvider()
	f := weather.AnalyticField{Base: 8, Amplitude: 3, WaveLatDeg: 6, WaveLonDeg: 9, Period: 6 * time.Hour}
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	pv.Add(f.BuildSeries(weather.WindSpeedMS, world.Bounds, 0.5, t0, time.Hour, 6))

	p := New(Config{Zones: world.Zones, Weather: pv})
	// A point inside the Marseille port zone.
	e := p.Enrich(geo.Point{Lat: 43.30, Lon: 5.37}, t0.Add(90*time.Minute))
	foundPort := false
	for _, id := range e.ZoneIDs {
		if id == "port-MRS" {
			foundPort = true
		}
	}
	if !foundPort {
		t.Errorf("port zone not found in enrichment: %v", e.ZoneIDs)
	}
	if _, ok := e.Values[weather.WindSpeedMS]; !ok {
		t.Error("weather variable missing from enrichment")
	}
}

func TestPipelineRejectsPositionlessReports(t *testing.T) {
	p := New(Config{})
	rep := &ais.PositionReport{
		MMSI:     227000001,
		Position: geo.Point{Lat: ais.LatNotAvailable, Lon: ais.LonNotAvailable},
	}
	p.Ingest(time.Now(), rep)
	snap := p.Metrics.Snapshot()
	if snap.Rejected != 1 || snap.Archived != 0 {
		t.Errorf("positionless report handling: %+v", snap)
	}
}

func TestPipelineConcurrentIngest(t *testing.T) {
	simCfg := sim.Config{Seed: 3, NumVessels: 40, Duration: time.Hour, TickSec: 2}
	run := runScenario(t, simCfg)
	p := New(Config{Zones: run.Config.World.Zones})
	var wg sync.WaitGroup
	chunk := (len(run.Positions) + 3) / 4
	for w := 0; w < 4; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(run.Positions) {
			hi = len(run.Positions)
		}
		wg.Add(1)
		go func(obs []sim.Observation) {
			defer wg.Done()
			for i := range obs {
				p.Ingest(obs[i].At, &obs[i].Report)
			}
		}(run.Positions[lo:hi])
	}
	wg.Wait()
	if got := p.Metrics.Snapshot().Ingested; got != int64(len(run.Positions)) {
		t.Errorf("concurrent ingest lost messages: %d of %d", got, len(run.Positions))
	}
}

func TestShardedMatchesSingleOnPerVesselMetrics(t *testing.T) {
	simCfg := sim.Config{Seed: 13, NumVessels: 60, Duration: time.Hour, TickSec: 2}
	run := runScenario(t, simCfg)

	single := New(Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60})
	sharded := NewSharded(Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}, 4)
	for i := range run.Positions {
		obs := &run.Positions[i]
		single.Ingest(obs.At, &obs.Report)
		sharded.Ingest(obs.At, &obs.Report)
	}
	ss := single.Metrics.Snapshot()
	hs := sharded.Snapshot()
	if ss.Ingested != hs.Ingested {
		t.Errorf("ingested differ: %d vs %d", ss.Ingested, hs.Ingested)
	}
	// Per-vessel stages are shard-independent: archived counts match.
	if ss.Archived != hs.Archived {
		t.Errorf("archived differ: %d vs %d", ss.Archived, hs.Archived)
	}
}

// TestShardedSituationMatchesSinglePipeline pins the Sharded.Situation
// merge: over the same input, the sharded operational picture — density
// grid, live vessel set, per-vessel alert board — equals a single
// pipeline's. Pairwise detectors are shard-local by design (the README's
// "Sharded async ingest" trade-off), so the comparison runs the per-vessel detector battery
// only; the grid and vessel equality below is what the merge must
// guarantee regardless.
func TestShardedSituationMatchesSinglePipeline(t *testing.T) {
	simCfg := sim.Config{Seed: 23, NumVessels: 50, Duration: 30 * time.Minute, TickSec: 2}
	simCfg.DefaultAnomalyRates()
	run := runScenario(t, simCfg)

	cfg := Config{Zones: run.Config.World.Zones}
	single := New(cfg)
	for _, shards := range []int{2, 4, 7} {
		sharded := NewSharded(cfg, shards)
		for i := range run.Positions {
			obs := &run.Positions[i]
			if shards == 2 { // feed the single pipeline once
				single.Ingest(obs.At, &obs.Report)
			}
			sharded.Ingest(obs.At, &obs.Report)
		}
		at := run.Positions[len(run.Positions)-1].At
		bounds := run.Config.World.Bounds
		want := single.Situation(at, bounds, 10, 30)
		got := sharded.Situation(at, bounds, 10, 30)

		if got.Density.Total != want.Density.Total || got.Density.MaxBin != want.Density.MaxBin {
			t.Fatalf("%d shards: density total/max %d/%d, want %d/%d",
				shards, got.Density.Total, got.Density.MaxBin, want.Density.Total, want.Density.MaxBin)
		}
		for i := range want.Density.Counts {
			if got.Density.Counts[i] != want.Density.Counts[i] {
				t.Fatalf("%d shards: density bin %d = %d, want %d",
					shards, i, got.Density.Counts[i], want.Density.Counts[i])
			}
		}
		if len(got.Vessels) != len(want.Vessels) {
			t.Fatalf("%d shards: %d vessels, want %d", shards, len(got.Vessels), len(want.Vessels))
		}
		wantVessels := map[uint32]time.Time{}
		for _, v := range want.Vessels {
			wantVessels[v.MMSI] = v.At
		}
		for _, v := range got.Vessels {
			at, ok := wantVessels[v.MMSI]
			if !ok || !at.Equal(v.At) {
				t.Fatalf("%d shards: vessel %d state diverges from single pipeline", shards, v.MMSI)
			}
		}
		// Per-vessel alerts are shard-independent; compare them as a
		// multiset, ignoring the shard-local pairwise kinds.
		pairwise := map[string]bool{
			string(events.KindRendezvous):    true,
			string(events.KindCollisionRisk): true,
		}
		count := func(alerts []va.SituationAlert) map[string]int {
			m := map[string]int{}
			for _, a := range alerts {
				if pairwise[a.Kind] {
					continue
				}
				m[fmt.Sprintf("%s|%s|%d", a.Kind, a.At.Format(time.RFC3339Nano), a.MMSI)]++
			}
			return m
		}
		gc, wc := count(got.Alerts), count(want.Alerts)
		if len(gc) != len(wc) {
			t.Fatalf("%d shards: %d distinct per-vessel alerts, want %d", shards, len(gc), len(wc))
		}
		for k, n := range wc {
			if gc[k] != n {
				t.Fatalf("%d shards: alert %s count %d, want %d", shards, k, gc[k], n)
			}
		}
	}
}

func TestShardedRouting(t *testing.T) {
	s := NewSharded(Config{}, 3)
	seen := map[int]bool{}
	for mmsi := uint32(201000000); mmsi < 201000300; mmsi++ {
		idx := s.ShardIndex(mmsi)
		if idx != stream.ShardOf(uint64(mmsi), 3) {
			t.Fatalf("ShardIndex(%d) = %d, disagrees with stream.ShardOf", mmsi, idx)
		}
		if s.ShardFor(mmsi) != s.Shards[idx] {
			t.Fatalf("ShardFor(%d) inconsistent with ShardIndex", mmsi)
		}
		if s.ShardFor(mmsi) != s.ShardFor(mmsi) {
			t.Fatalf("routing for %d not stable", mmsi)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Errorf("300 consecutive MMSIs hit only %d of 3 shards", len(seen))
	}
}

func BenchmarkPipelineIngest(b *testing.B) {
	simCfg := sim.Config{Seed: 2, NumVessels: 200, Duration: time.Hour, TickSec: 2}
	run, err := sim.Simulate(simCfg)
	if err != nil {
		b.Fatal(err)
	}
	p := New(Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := &run.Positions[i%len(run.Positions)]
		p.Ingest(obs.At, &obs.Report)
	}
}
