package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

//go:embed workloads.json
var workloadsJSON []byte

// spec is workloads.json: every input size of every workload, and the
// end-to-end metric each per-layer metric should move.
type spec struct {
	Workloads map[string]*workloadSpec `json:"workloads"`
	PerLayer  map[string]string        `json:"per_layer"`
}

type workloadSpec struct {
	Loop              string         `json:"loop"`
	Vessels           int            `json:"vessels"`
	FeedMinutes       int            `json:"feed_minutes"`
	SynopsisM         float64        `json:"synopsis_m"`
	TeeStages         bool           `json:"tee_stages"` // track and anomaly stages on
	PreloadShare      float64        `json:"preload_share"`
	PacedLinesPerS    float64        `json:"paced_lines_per_s"`
	MemoryBudgetShare float64        `json:"memory_budget_share"`
	SegmentBytes      int64          `json:"segment_bytes"`
	BoxTiles          [2]int         `json:"box_tiles"`
	AlertsFeed        bool           `json:"alerts_feed"`
	QueryMix          map[string]int `json:"query_mix"`
	RecentPositions   int            `json:"recent_positions"`
	ZipfS             float64        `json:"zipf_s"`
	HTTPShare         float64        `json:"http_share"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range s.Workloads {
		for k := range w.QueryMix {
			if !knownShape(k) {
				return nil, fmt.Errorf("workloads.json: %s: unknown request shape %q", name, k)
			}
		}
		if w.Vessels < 1 || w.FeedMinutes < 1 {
			return nil, fmt.Errorf("workloads.json: %s: vessels and feed_minutes must be positive", name)
		}
		if w.HTTPShare > 0 && w.httpEvery() < 1 {
			return nil, fmt.Errorf("workloads.json: %s: http_share must be 1/n for a whole n", name)
		}
	}
	return &s, nil
}

// httpEvery is n for an http_share of 1/n: the deck holds n copies of
// the mix, one of them sent over HTTP. It is 0 when the share is 0 or
// not of that form.
func (w *workloadSpec) httpEvery() int {
	if w.HTTPShare <= 0 {
		return 0
	}
	n := math.Round(1 / w.HTTPShare)
	if math.Abs(n*w.HTTPShare-1) > 1e-9 {
		return 0
	}
	return int(n)
}

func knownShape(k string) bool {
	for _, s := range shapes() {
		if string(s) == k {
			return true
		}
	}
	return false
}

// tracedLayers are the layers the traced run records spans for.
var tracedLayers = []string{"ais", "ingest", "track", "anomaly", "store", "objects", "tier", "tstore", "query", "query.http"}

// perLayerNames expands the <shape> and <layer> templates of the mapping
// into the metric names a traced run prints.
func (s *spec) perLayerNames() []string {
	var out []string
	for name := range s.PerLayer {
		switch {
		case strings.Contains(name, "<shape>"):
			for _, s := range shapes() {
				out = append(out, strings.Replace(name, "<shape>", string(s), 1))
			}
		case strings.Contains(name, "<layer>"):
			for _, l := range tracedLayers {
				out = append(out, strings.Replace(name, "<layer>", l, 1))
			}
		default:
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// benchmarkFile is the part of BENCHMARK.json the benchmark checks its
// own output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
