// Top-level benchmarks: one per reproduction experiment E1–E13 (the
// README's "Experiments & benchmarks"). Each bench regenerates the
// corresponding table/figure of the reproduction (cmd/benchrunner prints
// the same rows); b.N drives repetition so `go test -bench=.` also
// measures the harness cost itself.
package maritime

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

func BenchmarkE1_GlobalFeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E1(42, 200, 15*time.Minute)
	}
}

func BenchmarkE2_Synopses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E2(42)
	}
}

func BenchmarkE3_Veracity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E3(42)
	}
}

func BenchmarkE4_OpenWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E4(42)
	}
}

func BenchmarkE5_Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E5(42, []int{1, 4})
	}
}

func BenchmarkE6_Fusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E6(42)
	}
}

func BenchmarkE7_Enrichment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E7(42)
	}
}

func BenchmarkE8_Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E8(42)
	}
}

func BenchmarkE9_Forecast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E9(42)
	}
}

func BenchmarkE10_Uncertainty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E10(42)
	}
}

func BenchmarkE11_Queries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E11(42, 50000)
	}
}

func BenchmarkE12_Linking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E12(42, 500)
	}
}

func BenchmarkE13_VA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E13(42)
	}
}

// --- sharded ingest scaling ---------------------------------------------------------
//
// BenchmarkIngestSharded{1,2,4,8} replay the same dense synthetic feed
// through the async ingest engine at increasing shard counts, so
// `go test -bench=BenchmarkIngestSharded` measures the scaling curve
// directly (ns/op is one full feed; the msg/s metric is derived). The
// traffic is dense on purpose: pairwise-detection cost follows local
// vessel density, and partitioning the fleet divides the density each
// shard sees — the speedup source even on a single core.

var (
	ingestBenchOnce sync.Once
	ingestBenchRun  *SimRun
)

func ingestBenchTraffic(b *testing.B) *SimRun {
	b.Helper()
	ingestBenchOnce.Do(func() {
		cfg := SimConfig{Seed: 42, NumVessels: 2500, Duration: 20 * time.Minute, TickSec: 2}
		cfg.DefaultAnomalyRates()
		run, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ingestBenchRun = run
	})
	return ingestBenchRun
}

func benchmarkIngestSharded(b *testing.B, shards int) {
	run := ingestBenchTraffic(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewIngestEngine(IngestConfig{
			Pipeline: PipelineConfig{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
			Shards:   shards,
		})
		e.Start(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
			}
		}()
		for j := range run.Positions {
			o := &run.Positions[j]
			e.Ingest(ctx, o.At, &o.Report)
		}
		e.Close()
		<-drained
	}
	b.ReportMetric(float64(len(run.Positions))*float64(b.N)/b.Elapsed().Seconds(), "msg/s")
}

func BenchmarkIngestSharded1(b *testing.B) { benchmarkIngestSharded(b, 1) }
func BenchmarkIngestSharded2(b *testing.B) { benchmarkIngestSharded(b, 2) }
func BenchmarkIngestSharded4(b *testing.B) { benchmarkIngestSharded(b, 4) }
func BenchmarkIngestSharded8(b *testing.B) { benchmarkIngestSharded(b, 8) }
