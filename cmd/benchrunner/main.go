// Command benchrunner regenerates the reproduction experiments (E1–E13,
// the paper's claims; E20/E21, accuracy of the track and anomaly lanes
// against simulator truth) and prints the paper-style tables listed in
// the README's "Experiments & benchmarks". It also emits a
// machine-readable BENCH_<n>.json next to the working directory's
// previous ones (auto-numbered); disable with -json off or redirect with
// -json PATH. Performance is measured by perfbench, not here.
//
// Usage:
//
//	benchrunner               # run everything, write BENCH_<n>.json
//	benchrunner -only E2,E9   # run a subset (unknown ids exit 2)
//	benchrunner -json off     # skip the JSON record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchDoc is the schema of a BENCH_<n>.json perf-trajectory record.
type benchDoc struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Seed        int64        `json:"seed"`
	Experiments []benchEntry `json:"experiments"`
}

type benchEntry struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Cols      []string   `json:"cols"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default all)")
	seed := flag.Int64("seed", 42, "master seed")
	jsonOut := flag.String("json", "auto", `perf record: "auto" (next BENCH_<n>.json), "off", or a path`)
	flag.Parse()

	doc := benchDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
	}
	want, err := selectIDs(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}
	for _, x := range all {
		if len(want) > 0 && !want[x.id] {
			continue
		}
		start := time.Now()
		t := x.run(*seed)
		elapsed := time.Since(start)
		fmt.Println(t.Format())
		fmt.Printf("(%s in %v)\n\n", x.id, elapsed.Round(time.Millisecond))
		doc.Experiments = append(doc.Experiments, benchEntry{
			ID: t.ID, Title: t.Title, Cols: t.Cols, Rows: t.Rows, Notes: t.Notes,
			ElapsedMS: elapsed.Milliseconds(),
		})
	}

	if *jsonOut == "off" || *jsonOut == "" {
		return
	}
	path := *jsonOut
	if path == "auto" && len(want) > 0 {
		// A -only subset is not comparable with the full-run trajectory;
		// don't pollute the auto-numbered series with it.
		fmt.Println("perf record skipped for -only subset (pass -json PATH to force)")
		return
	}
	if path == "auto" {
		n := 1
		for {
			path = fmt.Sprintf("BENCH_%d.json", n)
			if _, err := os.Stat(path); os.IsNotExist(err) {
				break
			}
			n++
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: encoding perf record:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: writing perf record:", err)
		os.Exit(1)
	}
	fmt.Printf("perf record → %s\n", path)
}

type experiment struct {
	id  string
	run func(seed int64) experiments.Table
}

// all lists every experiment benchrunner runs, in print order.
var all = []experiment{
	{"E1", func(seed int64) experiments.Table { return experiments.E1(seed, 400, 40*time.Minute) }},
	{"E2", experiments.E2},
	{"E3", experiments.E3},
	{"E4", experiments.E4},
	{"E5", func(seed int64) experiments.Table { return experiments.E5(seed, []int{1, 2, 4, 8}) }},
	{"E6", experiments.E6},
	{"E7", experiments.E7},
	{"E8", experiments.E8},
	{"E9", experiments.E9},
	{"E10", experiments.E10},
	{"E11", func(seed int64) experiments.Table { return experiments.E11(seed, 200000) }},
	{"E12", func(seed int64) experiments.Table { return experiments.E12(seed, 1000) }},
	{"E13", experiments.E13},
	{"E20", experiments.E20},
	{"E21", experiments.E21},
}

// selectIDs parses -only into the set of ids to run (empty = all) and
// rejects any id that names no experiment, so a stale id fails loudly
// instead of silently running a smaller subset.
func selectIDs(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	known := map[string]bool{}
	var ids []string
	for _, x := range all {
		known[x.id] = true
		ids = append(ids, x.id)
	}
	var unknown []string
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !known[id] {
			unknown = append(unknown, id)
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id(s) %s in -only; valid ids: %s",
			strings.Join(unknown, ","), strings.Join(ids, ","))
	}
	return want, nil
}
