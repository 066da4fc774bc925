// Command perfbench is the repository's benchmark: it generates a seeded
// AIS feed, drives the ingest engine, its archive and its query surface
// through their public APIs in one of three workloads, checks the
// answers, and prints every metric with its unit and sample count.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload live-ops --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics of
// BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
// A traced run also writes its spans under .bench_build/perfbench.
// Workload sizes live in workloads.json. The process exits non-zero when
// any answer check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "backfill, live-ops or cold-archive")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var workloads = map[string]func(*env) error{
	"backfill":     runBackfill,
	"live-ops":     runLiveOps,
	"cold-archive": runColdArchive,
}

func run(workload string, seed int64, seconds int, traced bool) error {
	bench, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	fn, ok := workloads[workload]
	w := sp.Workloads[workload]
	if !ok || w == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := checkNames(bench, sp); err != nil {
		return err
	}
	base, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return err
	}
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAll(dir)
	ctx := context.Background()
	v := &env{
		ctx: ctx, name: workload, w: w, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traced, dir: dir,
		out: &results{e2e: map[string]metricVal{}, layer: map[string]metricVal{}},
	}
	if traced {
		v.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v (%s loop)\n", workload, seed, seconds, traced, w.Loop)
	if err := fn(v); err != nil {
		return err
	}
	v.e2e("failed_frac", v.fails.frac(), "ratio", int(v.fails.attempted.Load()))
	return v.print(bench)
}

// checkNames insists that workloads.json and BENCHMARK.json name the
// same workloads and per-layer metrics.
func checkNames(b *benchmarkFile, sp *spec) error {
	var declared []string
	for _, m := range b.PerLayer {
		declared = append(declared, m.Name)
	}
	sort.Strings(declared)
	if got := sp.perLayerNames(); strings.Join(got, ",") != strings.Join(declared, ",") {
		return fmt.Errorf("workloads.json per_layer does not match BENCHMARK.json per_layer")
	}
	for _, wl := range b.Workloads {
		if sp.Workloads[wl.Name] == nil || workloads[wl.Name] == nil {
			return fmt.Errorf("BENCHMARK.json workload %q has no implementation", wl.Name)
		}
	}
	return nil
}

// print writes one report line per metric, then the result object with
// the metrics BENCHMARK.json declares for this kind of run.
func (v *env) print(b *benchmarkFile) error {
	for _, set := range []map[string]metricVal{v.out.e2e, v.out.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			fmt.Printf("metric %-34s %14.4f %-6s n=%d\n", n, m.value, m.unit, m.n)
		}
	}
	decls, src := b.EndToEnd, v.out.e2e
	if v.traced {
		decls, src = b.PerLayer, v.out.layer
	}
	metrics := make(map[string]any, len(decls))
	for _, d := range decls {
		m, ok := src[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.unit, d.Unit)
		}
		metrics[d.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	attempted, failed := v.fails.attempted.Load(), v.fails.failed.Load()
	out, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}
