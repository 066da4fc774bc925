// Package experiments implements the reproduction harness: one function
// per experiment (E1–E13, E20, E21; the README's "Experiments &
// benchmarks" lists them), each returning the paper-style table rows
// that cmd/benchrunner prints. Everything is seeded and deterministic
// (wall-clock columns vary with the hardware; counts do not).
// Performance is measured by perfbench and the microbenchmarks, not
// here.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/forecast"
	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/semstore"
	"repro/internal/sim"
	"repro/internal/synopsis"
	"repro/internal/track"
	"repro/internal/uncertainty"
	"repro/internal/va"
	"repro/internal/weather"
)

// Table is one experiment's result: a title, column headers and rows.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, v := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], v)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func truthTrajectories(run *sim.Run) []*model.Trajectory {
	var out []*model.Trajectory
	for mmsi, pts := range run.Truth {
		tr := &model.Trajectory{MMSI: mmsi}
		for _, p := range pts {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos, SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
		tr.Sort()
		out = append(out, tr)
	}
	return out
}

// E1 reproduces Figure 1: worldwide feed volume and coverage. The paper
// cites ~18M received positions/day worldwide [16]; we simulate a global
// window, report rates by receiver path, and extrapolate to a day.
func E1(seed int64, vessels int, window time.Duration) Table {
	cfg := sim.Config{
		Seed: seed, World: sim.GlobalWorld(seed), NumVessels: vessels,
		Duration: window, TickSec: 5,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	var terr, sat, both int
	var pts []geo.Point
	for i := range run.Positions {
		o := &run.Positions[i]
		if o.Terrestrial {
			terr++
		}
		if o.Satellite {
			sat++
		}
		if o.Terrestrial && o.Satellite {
			both++
		}
		pts = append(pts, o.Report.Position)
	}
	density := va.NewDensity(geo.Rect{MinLat: -60, MinLon: -180, MaxLat: 70, MaxLon: 180}, 26, 72)
	for _, p := range pts {
		density.Add(p)
	}
	perDay := float64(len(run.Positions)) / window.Hours() * 24
	emittedPerDay := float64(run.Emitted) / window.Hours() * 24
	t := Table{
		ID:    "E1",
		Title: "worldwide AIS feed (Figure 1)",
		Cols:  []string{"metric", "value"},
		Rows: [][]string{
			{"fleet size", f("%d", vessels)},
			{"window", window.String()},
			{"emitted positions", f("%d", run.Emitted)},
			{"received positions", f("%d", len(run.Positions))},
			{"  via terrestrial", f("%d (%.0f%%)", terr, pct(terr, len(run.Positions)))},
			{"  via satellite", f("%d (%.0f%%)", sat, pct(sat, len(run.Positions)))},
			{"  via both", f("%d", both)},
			{"received/day (extrapolated)", f("%.2fM", perDay/1e6)},
			{"emitted/day (extrapolated)", f("%.2fM", emittedPerDay/1e6)},
			{"covered 5°-cells", f("%d (%.0f%% of ocean grid)", density.NonEmptyBins(), density.CoverageFraction()*100)},
		},
		Notes: []string{
			f("paper claim: ~18M positions/day worldwide [16]; shape check: a %d-vessel world fleet extrapolates to that order at real AIS cadences", vessels),
			"scale the fleet with -vessels to match absolute volume; coverage map below",
		},
	}
	t.Notes = append(t.Notes, "\n"+density.Render())
	return t
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// E2 reproduces the §2.1 synopsis claim: ~95% compression over AIS traces
// without destroying accuracy. Sweep of compressor × tolerance with SED
// error and downstream event-detection fidelity.
func E2(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 60, Duration: 4 * time.Hour, TickSec: 2}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	trs := truthTrajectories(run)
	t := Table{
		ID: "E2", Title: "trajectory synopses (95% claim, §2.1)",
		Cols: []string{"algorithm", "param", "ratio", "meanSED(m)", "maxSED(m)"},
	}
	type cand struct {
		c    synopsis.Compressor
		name string
	}
	var cands []cand
	for _, tol := range []float64{30, 60, 120, 240} {
		cands = append(cands,
			cand{synopsis.DouglasPeucker{ToleranceM: tol}, f("tol=%.0fm", tol)},
			cand{synopsis.DeadReckoning{ToleranceM: tol, MaxGap: 10 * time.Minute}, f("tol=%.0fm", tol)},
		)
	}
	cands = append(cands,
		cand{synopsis.SquishE{Capacity: 50}, "cap=50"},
		cand{synopsis.Uniform{Every: 20}, "every=20"},
	)
	for _, cd := range cands {
		var kept, orig int
		var sumMean, maxSED float64
		n := 0
		for _, tr := range trs {
			if tr.Len() < 50 {
				continue
			}
			comp := cd.c.Compress(tr)
			rep := synopsis.Evaluate(tr, comp, cd.c.Name())
			kept += rep.Kept
			orig += rep.Original
			sumMean += rep.MeanSEDM
			if rep.MaxSEDM > maxSED {
				maxSED = rep.MaxSEDM
			}
			n++
		}
		ratio := 1 - float64(kept)/float64(orig)
		t.Rows = append(t.Rows, []string{
			cd.c.Name(), cd.name, f("%.1f%%", ratio*100), f("%.0f", sumMean/float64(n)), f("%.0f", maxSED),
		})
	}
	t.Notes = append(t.Notes, "paper claim [29]: state of the art reaches 95% compression on AIS traces; DP/DR at 60–120 m tolerance land in that band with bounded error")
	return t
}

// E3 reproduces the ~5% static-error claim [44]: inject at the published
// rate, detect with the rule set, report precision/recall and the
// estimated rate.
func E3(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 150, Duration: 3 * time.Hour, TickSec: 2, StaticErrorRate: 0.05}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	var tp, fp, fn, flagged int
	for i := range run.Statics {
		so := &run.Statics[i]
		bad := len(quality.CheckStatic(&so.Msg)) > 0
		if bad {
			flagged++
		}
		switch {
		case bad && so.Corrupted:
			tp++
		case bad && !so.Corrupted:
			fp++
		case !bad && so.Corrupted:
			fn++
		}
	}
	total := len(run.Statics)
	return Table{
		ID: "E3", Title: "AIS static-data veracity (~5% claim, §1 [44])",
		Cols: []string{"metric", "value"},
		Rows: [][]string{
			{"static messages", f("%d", total)},
			{"injected error rate", "5.0%"},
			{"estimated error rate", f("%.1f%%", pct(flagged, total))},
			{"detector precision", f("%.1f%%", pct(tp, tp+fp))},
			{"detector recall", f("%.1f%%", pct(tp, tp+fn))},
		},
		Notes: []string{"paper claim [44]: ≈5% of AIS static transmissions carry errors; the rule set recovers the rate and attributes the bad field"},
	}
}

// E4 reproduces the open-world argument: 27% of ships dark ≥10% of the
// time [43]; rendezvous recall under closed- vs open-world semantics.
func E4(seed int64) Table {
	cfg := sim.Config{
		Seed: seed, NumVessels: 120, Duration: 4 * time.Hour, TickSec: 2,
		DarkShipFrac: 0.27, DarkTimeFrac: 0.12,
		RendezvousFrac: 0.05, DarkRendezvousFrac: 0.08,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	// Measured go-dark profile from received data.
	from := run.Config.Start
	to := from.Add(run.Config.Duration)
	reportTimes := map[uint32][]time.Time{}
	for i := range run.Positions {
		o := &run.Positions[i]
		reportTimes[o.TrueMMSI] = append(reportTimes[o.TrueMMSI], o.At)
	}
	darkShips := 0
	for _, v := range run.Vessels {
		c := quality.MeasureCompleteness(v.MMSI, reportTimes[v.MMSI], from, to, 30*time.Second, 10*time.Minute)
		if c.DarkFraction >= 0.10 {
			darkShips++
		}
	}
	// Closed-world: detector over received reports only.
	engine := events.NewEngine(&events.Context{Zones: run.Config.World.Zones}, 0.1)
	engine.RegisterPair(&events.RendezvousDetector{})
	trajs := map[uint32]*model.Trajectory{}
	for i := range run.Positions {
		o := &run.Positions[i]
		s := model.FromReport(o.At, &o.Report)
		s.MMSI = o.TrueMMSI // evaluation stream: resolve spoofed ids
		engine.Process(s)
		tr, ok := trajs[s.MMSI]
		if !ok {
			tr = &model.Trajectory{MMSI: s.MMSI}
			trajs[s.MMSI] = tr
		}
		tr.Points = append(tr.Points, s)
	}
	var truths []events.TruthWindow
	rdvTruth := 0
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other, Start: e.Start, End: e.End,
		})
		if e.Kind == sim.EventRendezvous {
			rdvTruth++
		}
	}
	closed := events.Score(events.KindRendezvous, engine.Alerts(), truths, 10*time.Minute)
	// Open-world: add possible-rendezvous qualification over dark gaps.
	qualified := events.QualifyRendezvous(trajs, engine.Alerts(), 10*time.Minute, events.DefaultOpenWorldConfig())
	// A truth rendezvous counts as covered if either detected or qualified
	// as possible.
	covered := 0
	for _, e := range run.Events {
		if e.Kind != sim.EventRendezvous {
			continue
		}
		hit := false
		for _, a := range qualified {
			if a.Kind != events.KindRendezvous && a.Kind != events.KindPossibleRendezvous {
				continue
			}
			if (a.MMSI == e.MMSI && a.Other == e.Other) || (a.MMSI == e.Other && a.Other == e.MMSI) {
				if !a.Start.After(e.End) && !a.At.Before(e.Start) {
					hit = true
					break
				}
			}
		}
		if hit {
			covered++
		}
	}
	possibles := 0
	for _, a := range qualified {
		if a.Kind == events.KindPossibleRendezvous {
			possibles++
		}
	}
	return Table{
		ID: "E4", Title: "go-dark and open-world querying (§4 [43])",
		Cols: []string{"metric", "value"},
		Rows: [][]string{
			{"fleet", f("%d", len(run.Vessels))},
			{"ships dark ≥10% of time", f("%d (%.0f%%)", darkShips, pct(darkShips, len(run.Vessels)))},
			{"true rendezvous", f("%d", rdvTruth)},
			{"closed-world recall", f("%.0f%%", closed.Recall*100)},
			{"open-world coverage", f("%.0f%%", pct(covered, rdvTruth))},
			{"possible-rendezvous answers", f("%d", possibles)},
		},
		Notes: []string{
			"paper claim [43]: 27% of ships go dark ≥10% of the time, so closed-world answers under-report; open-world qualification recovers coverage at the cost of 'possible' answers",
		},
	}
}

// E5 measures the integrated pipeline (Figure 2): throughput and per-stage
// cost versus shard count.
func E5(seed int64, shards []int) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 250, Duration: 90 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	t := Table{
		ID: "E5", Title: "integrated pipeline throughput (Figure 2)",
		Cols: []string{"shards", "msgs", "wall", "msg/s", "archived", "alerts"},
	}
	for _, n := range shards {
		p := core.NewSharded(core.Config{
			Zones: run.Config.World.Zones, SynopsisToleranceM: 60,
		}, n)
		start := time.Now()
		if n == 1 {
			for i := range run.Positions {
				o := &run.Positions[i]
				p.Ingest(o.At, &o.Report)
			}
		} else {
			done := make(chan struct{}, n)
			for w := 0; w < n; w++ {
				go func(w int) {
					for i := range run.Positions {
						o := &run.Positions[i]
						if p.ShardIndex(o.Report.MMSI) == w {
							p.Shards[w].Ingest(o.At, &o.Report)
						}
					}
					done <- struct{}{}
				}(w)
			}
			for w := 0; w < n; w++ {
				<-done
			}
		}
		wall := time.Since(start)
		snap := p.Snapshot()
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%d", snap.Ingested), wall.Round(time.Millisecond).String(),
			f("%.0f", float64(snap.Ingested)/wall.Seconds()),
			f("%d", snap.Archived), f("%d", snap.Alerts),
		})
	}
	t.Notes = append(t.Notes,
		"the paper's 18M/day world feed averages ~208 msg/s; a single shard exceeds that by orders of magnitude, bursts included",
		"sharding trades cross-shard pairwise detection for linear ingest scaling (see the README's Sharded async ingest section)")
	return t
}

// E6 reproduces the fusion experiment: AIS+radar association accuracy and
// track quality versus single-source; register conflict resolution.
func E6(seed int64) Table {
	cfg := sim.Config{
		Seed: seed, NumVessels: 50, Duration: time.Hour, TickSec: 2,
		RadarRangeM: 60000, NumRadar: 4, RadarNoiseM: 120,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	// Track with AIS only, then AIS+radar; compare RMSE against truth for
	// vessels inside radar coverage.
	type scan struct {
		at    time.Time
		ms    []fusion.Measurement
		truth []uint32
	}
	build := func(withRadar bool) []scan {
		type timed struct {
			at    time.Time
			m     fusion.Measurement
			truth uint32
		}
		var feed []timed
		for i := range run.Positions {
			o := &run.Positions[i]
			feed = append(feed, timed{o.At, fusion.Measurement{
				At: o.At, Pos: o.Report.Position, SigmaM: 10,
				Identity: o.Report.MMSI, Source: "ais",
			}, o.TrueMMSI})
		}
		if withRadar {
			for _, c := range run.Radar {
				feed = append(feed, timed{c.At, fusion.Measurement{
					At: c.At, Pos: c.Pos, SigmaM: 120, Source: "radar",
				}, c.TrueMMSI})
			}
		}
		for i := 1; i < len(feed); i++ {
			for j := i; j > 0 && feed[j].at.Before(feed[j-1].at); j-- {
				feed[j], feed[j-1] = feed[j-1], feed[j]
			}
		}
		var scans []scan
		var cur scan
		for _, fd := range feed {
			if cur.at.IsZero() || fd.at.Sub(cur.at) > 10*time.Second {
				if len(cur.ms) > 0 {
					scans = append(scans, cur)
				}
				cur = scan{at: fd.at}
			}
			cur.ms = append(cur.ms, fd.m)
			cur.truth = append(cur.truth, fd.truth)
		}
		if len(cur.ms) > 0 {
			scans = append(scans, cur)
		}
		return scans
	}
	truthAt := func(mmsi uint32, at time.Time) (geo.Point, bool) {
		pts := run.Truth[mmsi]
		for _, p := range pts {
			d := p.At.Sub(at)
			if d < 0 {
				d = -d
			}
			if d <= 30*time.Second {
				return p.Pos, true
			}
		}
		return geo.Point{}, false
	}
	runTracker := func(withRadar bool) (rmse float64, assocAcc float64, tracks int) {
		tk := fusion.NewTracker(fusion.DefaultTrackerConfig())
		var se, n float64
		var correct, anon int
		for _, sc := range build(withRadar) {
			tk.Process(sc.at, sc.ms)
			for i, m := range sc.ms {
				if m.Identity != 0 {
					continue
				}
				anon++
				want := sc.truth[i]
				for _, tr := range tk.Tracks {
					if tr.Identity == want && geo.Distance(tr.Filter.Position(), m.Pos) < 600 {
						correct++
						break
					}
				}
			}
			for _, tr := range tk.ConfirmedTracks() {
				if tr.Identity == 0 {
					continue
				}
				if tp, ok := truthAt(tr.Identity, sc.at); ok {
					d := geo.Distance(tr.Filter.Position(), tp)
					se += d * d
					n++
				}
			}
		}
		if n > 0 {
			rmse = sqrt(se / n)
		}
		if anon > 0 {
			assocAcc = float64(correct) / float64(anon)
		}
		return rmse, assocAcc, len(tk.ConfirmedTracks())
	}
	rmseAIS, _, trAIS := runTracker(false)
	rmseFused, assoc, trFused := runTracker(true)

	rng := rand.New(rand.NewSource(seed))
	truth, ra, rb := registry.SyntheticPair(rng, 400, 0.02, 0.30)
	resolveAcc := func(rv *registry.Resolver) float64 {
		resolved := map[uint32]*registry.Record{}
		for _, mmsi := range ra.MMSIs() {
			resolved[mmsi] = rv.Resolve(map[string]*registry.Record{"A": ra.Get(mmsi), "B": rb.Get(mmsi)})
		}
		return registry.ResolutionAccuracy(truth, resolved)
	}
	uniform := registry.NewResolver()
	weighted := registry.NewResolver()
	weighted.Reliability["A"] = 0.95
	weighted.Reliability["B"] = 0.40

	return Table{
		ID: "E6", Title: "multi-source fusion (§2.4 [19])",
		Cols: []string{"metric", "AIS only", "AIS+radar"},
		Rows: [][]string{
			{"confirmed tracks", f("%d", trAIS), f("%d", trFused)},
			{"track RMSE vs truth (m)", f("%.0f", rmseAIS), f("%.0f", rmseFused)},
			{"radar→track association", "—", f("%.0f%%", assoc*100)},
			{"register resolution (uniform)", f("%.1f%%", resolveAcc(uniform)*100), ""},
			{"register resolution (weighted)", f("%.1f%%", resolveAcc(weighted)*100), ""},
		},
		Notes: []string{"fusion keeps track quality while absorbing anonymous radar; reliability weighting resolves register conflicts (the MarineTraffic-vs-Lloyd's scenario of §4)"},
	}
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// E7 measures multi-granularity enrichment (§2.5): throughput and
// interpolation error versus weather-grid resolution.
func E7(seed int64) Table {
	world := sim.MediterraneanWorld(seed)
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	field := weather.AnalyticField{Base: 10, Amplitude: 5, WaveLatDeg: 5, WaveLonDeg: 8, Period: 12 * time.Hour}
	probe := make([]geo.Point, 0, 1000)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		probe = append(probe, geo.Point{
			Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40,
		})
	}
	t := Table{
		ID: "E7", Title: "multi-granularity enrichment (§2.5)",
		Cols: []string{"grid", "cells", "RMSE", "lookups/s"},
	}
	for _, cellDeg := range []float64{2.0, 1.0, 0.5, 0.25} {
		s := field.BuildSeries(weather.WindSpeedMS, world.Bounds, cellDeg, t0, time.Hour, 6)
		var se float64
		at := t0.Add(90 * time.Minute)
		start := time.Now()
		const reps = 50
		for r := 0; r < reps; r++ {
			for _, p := range probe {
				got, _ := s.Sample(p, at)
				if r == 0 {
					d := got - field.Eval(p, at)
					se += d * d
				}
			}
		}
		elapsed := time.Since(start)
		cells := s.Slices[0].Rows * s.Slices[0].Cols
		t.Rows = append(t.Rows, []string{
			f("%.2f°", cellDeg), f("%d", cells),
			f("%.3f", sqrt(se/float64(len(probe)))),
			f("%.1fM", float64(reps*len(probe))/elapsed.Seconds()/1e6),
		})
	}
	t.Notes = append(t.Notes, "the km-scale/hourly context of §2.5 joins against 10m/seconds AIS at millions of lookups/s; finer grids cut interpolation error")
	return t
}

// E8 scores the full detector battery against injected anomalies.
func E8(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 200, Duration: 4 * time.Hour, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	p := core.New(core.Config{Zones: run.Config.World.Zones, DarkThreshold: 25 * time.Minute})
	for i := range run.Positions {
		o := &run.Positions[i]
		p.Ingest(o.At, &o.Report)
	}
	var truths []events.TruthWindow
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other, Start: e.Start, End: e.End,
		})
	}
	t := Table{
		ID: "E8", Title: "event recognition scorecard (§3.1)",
		Cols: []string{"kind", "truth", "alerts", "precision", "recall", "latency"},
	}
	for _, kind := range []events.Kind{
		events.KindDark, events.KindTeleport, events.KindIdentity,
		events.KindRendezvous, events.KindLoiter, events.KindDrift,
		events.KindZoneViolation,
	} {
		r := events.Score(kind, p.Alerts(), truths, 5*time.Minute)
		if r.Truth == 0 && r.Alerts == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			string(kind), f("%d", r.Truth), f("%d", r.Alerts),
			f("%.0f%%", r.Precision*100), f("%.0f%%", r.Recall*100),
			r.MeanLatency.Round(time.Second).String(),
		})
	}
	t.Notes = append(t.Notes,
		"dark-detection trades precision against recall with the gap threshold (satellite revisit gaps mimic going dark — exactly the veracity problem §1 describes)")
	return t
}

// E9 sweeps forecasting horizon across the predictor family.
func E9(seed int64) Table {
	// Train and test must share the same world: patterns-of-life are a
	// property of the lanes, and a re-jittered world has different lanes.
	world := sim.MediterraneanWorld(seed)
	hist, err := sim.Simulate(sim.Config{Seed: seed, World: world, NumVessels: 120, Duration: 8 * time.Hour, TickSec: 5})
	if err != nil {
		panic(err)
	}
	rm := forecast.NewRouteModel(0.02)
	rm.TrainAll(truthTrajectories(hist))
	test, err := sim.Simulate(sim.Config{Seed: seed + 7, World: world, NumVessels: 40, Duration: 6 * time.Hour, TickSec: 5})
	if err != nil {
		panic(err)
	}
	predictors := []forecast.Predictor{
		forecast.DeadReckoning{}, forecast.Kalman{}, rm,
		forecast.Hybrid{Route: rm, Fallback: forecast.Kalman{}},
	}
	horizons := []time.Duration{10 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour}
	// Evaluate on transit traffic: "anticipated trajectories" (§3.1) are a
	// lane-traffic problem; orbiting fishing vessels have no route to
	// anticipate (the hybrid handles them by kinematic fallback anyway).
	var transits []*model.Trajectory
	for _, tr := range truthTrajectories(test) {
		if tr.Length() < 20000 {
			continue
		}
		disp := geo.Distance(tr.Points[0].Pos, tr.Points[tr.Len()-1].Pos)
		if disp/tr.Length() > 0.5 {
			transits = append(transits, tr)
		}
	}
	results := forecast.Evaluate(predictors, transits, horizons, 20*time.Minute)
	t := Table{
		ID: "E9", Title: "trajectory forecasting error by horizon (§3.1)",
		Cols: []string{"predictor", "10m", "30m", "1h", "2h"},
	}
	for _, p := range predictors {
		row := []string{p.Name()}
		for _, h := range horizons {
			for _, r := range results {
				if r.Predictor == p.Name() && r.Horizon == h {
					row = append(row, f("%.0fm", r.MeanM))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"mean error in metres over transit traffic; on this basin's near-straight lanes kinematics dominate and the hybrid's abstention rule keeps it at Kalman quality",
		"the patterns-of-life win appears where lanes bend: the dogleg microbenchmark (forecast tests, TestRouteModelLearnsTheTurn) shows the route model ~6x better than dead reckoning across a turn at 40 min horizon")
	return t
}

// E10 compares uncertainty frameworks under increasing conflict, including
// the Zadeh configuration.
func E10(seed int64) Table {
	frame := uncertainty.Frame{"cargo", "fishing", "smuggler"}
	rng := rand.New(rand.NewSource(seed))
	t := Table{
		ID: "E10", Title: "uncertainty frameworks under conflict (§4 [13][45])",
		Cols: []string{"conflict", "bayes", "dempster", "yager", "disc.dempster", "possibility"},
	}
	const trials = 300
	for _, conflict := range []float64{0.0, 0.3, 0.6, 0.9} {
		var accB, accD, accY, accDD, accP float64
		for trial := 0; trial < trials; trial++ {
			truth := frame[rng.Intn(len(frame))]
			// Source 1 is honest; source 2 is wrong with prob = conflict.
			obs2 := truth
			if rng.Float64() < conflict {
				obs2 = frame[(frame.Index(truth)+1+rng.Intn(2))%3]
			}
			// Bayes: multiply likelihoods (0.8 on observed, 0.1 elsewhere).
			lik := func(h uncertainty.Hypothesis) []float64 {
				out := make([]float64, len(frame))
				for i, x := range frame {
					if x == h {
						out[i] = 0.8
					} else {
						out[i] = 0.1
					}
				}
				return out
			}
			d := uncertainty.UniformDist(frame)
			d, _ = d.BayesUpdate(lik(truth))
			d, _ = d.BayesUpdate(lik(obs2))
			if h, _ := d.MAP(); h == truth {
				accB++
			}
			m1 := uncertainty.NewMass(frame, map[uncertainty.Set]float64{uncertainty.SetOf(frame, truth): 0.8})
			m2 := uncertainty.NewMass(frame, map[uncertainty.Set]float64{uncertainty.SetOf(frame, obs2): 0.8})
			if c, err := m1.CombineDempster(m2); err == nil {
				if h, _ := c.Pignistic().MAP(); h == truth {
					accD++
				}
			}
			if h, _ := m1.CombineYager(m2).Pignistic().MAP(); h == truth {
				accY++
			}
			d1 := m1.Discount(0.9)
			d2 := m2.Discount(0.5) // source 2 known less reliable
			if c, err := d1.CombineDempster(d2); err == nil {
				if h, _ := c.Pignistic().MAP(); h == truth {
					accDD++
				}
			}
			p1 := uncertainty.NewPossibility(frame, map[uncertainty.Hypothesis]float64{truth: 1, frame[(frame.Index(truth)+1)%3]: 0.3, frame[(frame.Index(truth)+2)%3]: 0.3})
			p2 := uncertainty.NewPossibility(frame, map[uncertainty.Hypothesis]float64{obs2: 1, frame[(frame.Index(obs2)+1)%3]: 0.3, frame[(frame.Index(obs2)+2)%3]: 0.3})
			if comb, _, err := p1.CombineMin(p2); err == nil {
				if h, _ := comb.Best(); h == truth {
					accP++
				}
			} else if h, _ := p1.CombineMax(p2).Best(); h == truth {
				accP++
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%.0f%%", conflict*100),
			f("%.0f%%", 100*accB/trials), f("%.0f%%", 100*accD/trials),
			f("%.0f%%", 100*accY/trials), f("%.0f%%", 100*accDD/trials),
			f("%.0f%%", 100*accP/trials),
		})
	}
	t.Notes = append(t.Notes,
		"reliability discounting before combination (§4's prescription) dominates naive Dempster as conflict grows; Zadeh's paradox is exercised in the uncertainty package tests")
	return t
}

// E11 compares archival query plans: scan vs grid vs R-tree.
func E11(seed int64, points int) Table {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, points)
	for i := range items {
		items[i] = index.Item{Pos: geo.Point{Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40}, ID: uint64(i)}
	}
	g := index.NewGridIndex(0.5)
	startBuild := time.Now()
	for _, it := range items {
		g.Insert(it)
	}
	gridBuild := time.Since(startBuild)
	startBuild = time.Now()
	rt := index.BuildRTree(items)
	rtreeBuild := time.Since(startBuild)
	sc := &index.Scan{Items: items}

	idxs := []struct {
		name  string
		ix    index.SpatialIndex
		build time.Duration
	}{
		{"scan", sc, 0}, {"grid", g, gridBuild}, {"rtree", rt, rtreeBuild},
	}
	queries := make([]geo.Rect, 50)
	for i := range queries {
		c := geo.Point{Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40}
		queries[i] = geo.RectAround(c, 50000)
	}
	t := Table{
		ID: "E11", Title: f("spatial query plans over %d points (§2.3)", points),
		Cols: []string{"index", "build", "range q/s", "knn q/s"},
	}
	for _, e := range idxs {
		start := time.Now()
		reps := 0
		for time.Since(start) < 200*time.Millisecond {
			_ = e.ix.Search(queries[reps%len(queries)], nil)
			reps++
		}
		rangeQPS := float64(reps) / time.Since(start).Seconds()
		start = time.Now()
		reps = 0
		for time.Since(start) < 200*time.Millisecond {
			q := queries[reps%len(queries)]
			_ = e.ix.Nearest(q.Center(), 10)
			reps++
		}
		knnQPS := float64(reps) / time.Since(start).Seconds()
		t.Rows = append(t.Rows, []string{
			e.name, e.build.Round(time.Millisecond).String(),
			f("%.0f", rangeQPS), f("%.0f", knnQPS),
		})
	}
	return t
}

// E12 measures link discovery between dirty registers.
func E12(seed int64, n int) Table {
	rng := rand.New(rand.NewSource(seed))
	_, ra, rb := registry.SyntheticPair(rng, n, 0.02, 0.25)
	t := Table{
		ID: "E12", Title: f("link discovery across registers (%d vessels, §2.2)", n),
		Cols: []string{"config", "links", "precision", "recall", "links/s"},
	}
	for _, blocking := range []bool{true, false} {
		cfg := semstore.DefaultLinkConfig()
		cfg.UseBlocking = blocking
		start := time.Now()
		links := semstore.DiscoverLinks(ra, rb, cfg)
		elapsed := time.Since(start)
		q := semstore.EvaluateLinks(links, n)
		name := "blocked"
		if !blocking {
			name = "exhaustive"
		}
		t.Rows = append(t.Rows, []string{
			name, f("%d", q.Links), f("%.1f%%", q.Precision*100),
			f("%.1f%%", q.Recall*100), f("%.0f", float64(n)/elapsed.Seconds()),
		})
	}
	t.Notes = append(t.Notes, "blocking trades a little recall for an order of magnitude in throughput — the streaming-rate requirement of §2.2")
	return t
}

// E13 measures multi-scale situation aggregation.
func E13(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 200, Duration: 4 * time.Hour, TickSec: 5}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	var pts []geo.Point
	for _, tps := range run.Truth {
		for _, p := range tps {
			pts = append(pts, p.Pos)
		}
	}
	t := Table{
		ID: "E13", Title: f("multi-scale situation aggregation over %d points (§3.2)", len(pts)),
		Cols: []string{"zoom", "bins", "build", "non-empty"},
	}
	for _, level := range []int{8, 32, 128, 512} {
		start := time.Now()
		d := va.NewDensity(run.Config.World.Bounds, level, level*2)
		for _, p := range pts {
			d.Add(p)
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			f("%d", level), f("%d", level*level*2),
			elapsed.Round(time.Microsecond).String(),
			f("%d (%.1f%%)", d.NonEmptyBins(), d.CoverageFraction()*100),
		})
	}
	t.Notes = append(t.Notes, "all zoom levels build in milliseconds: interactive drill-down is CPU-trivial once the archive is in memory")
	return t
}

// E20 measures what the track-intelligence stage's forecasts are worth:
// predict error against simulator ground truth by horizon, the stage's
// hybrid route-prior/dead-reckoning predictor vs the pure dead-reckoning
// baseline it falls back to. What the stage costs the ingest hot path is
// perfbench's track.append_ns_per_rec.
func E20(seed int64) Table {
	// A clean fleet (no spoofing, so reported identity == truth identity),
	// long enough that a 30-minute horizon still has ground truth.
	pcfg := sim.Config{Seed: seed + 1, NumVessels: 150, Duration: 2 * time.Hour, TickSec: 2}
	prun, err := sim.Simulate(pcfg)
	if err != nil {
		panic(err)
	}
	cut := prun.Config.Start.Add(80 * time.Minute)
	stage := track.NewStage(track.Config{})
	histories := map[uint32][]model.VesselState{}
	for i := range prun.Positions {
		o := &prun.Positions[i]
		if o.At.After(cut) {
			break
		}
		st := model.FromReport(o.At, &o.Report)
		if err := stage.Append(st); err != nil {
			panic(err)
		}
		histories[st.MMSI] = append(histories[st.MMSI], st)
	}
	truthAt := func(pts []sim.TruthPoint, at time.Time) (geo.Point, bool) {
		for i := 1; i < len(pts); i++ {
			if pts[i].At.Before(at) {
				continue
			}
			a, b := pts[i-1], pts[i]
			span := b.At.Sub(a.At).Seconds()
			if span <= 0 {
				return b.Pos, true
			}
			frac := at.Sub(a.At).Seconds() / span
			return geo.Point{
				Lat: a.Pos.Lat + (b.Pos.Lat-a.Pos.Lat)*frac,
				Lon: a.Pos.Lon + (b.Pos.Lon-a.Pos.Lon)*frac,
			}, true
		}
		return geo.Point{}, false
	}

	t := Table{
		ID: "E20", Title: "track-intelligence stage: predict error",
		Cols: []string{"measurement", "n", "result", "baseline", "delta"},
	}
	for _, horizon := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute} {
		var stageSum, drSum float64
		var n, routeHits int
		for mmsi, pts := range histories {
			last := pts[len(pts)-1]
			if len(pts) < 10 || cut.Sub(last.At) > 10*time.Minute {
				continue
			}
			truth, ok := truthAt(prun.Truth[mmsi], last.At.Add(horizon))
			if !ok {
				continue
			}
			p, ok := stage.Predict(mmsi, horizon)
			if !ok {
				continue
			}
			drPos, ok := (forecast.DeadReckoning{}).Predict(
				&model.Trajectory{MMSI: mmsi, Points: pts}, horizon)
			if !ok {
				continue
			}
			if p.Method != (forecast.DeadReckoning{}).Name() {
				routeHits++
			}
			stageSum += geo.Distance(geo.Point{Lat: p.Lat, Lon: p.Lon}, truth)
			drSum += geo.Distance(drPos, truth)
			n++
		}
		if n == 0 {
			continue
		}
		stageMean, drMean := stageSum/float64(n), drSum/float64(n)
		t.Rows = append(t.Rows, []string{
			f("predict error @ %s", horizon), f("%d vessels (%d route-model)", n, routeHits),
			f("%.0f m hybrid", stageMean), f("%.0f m dead-reckoning", drMean),
			f("%+.1f%%", 100*(stageMean-drMean)/drMean),
		})
	}
	t.Notes = append(t.Notes,
		"predict rows: fleet simulated 2h, history cut at 80min, stage forecasts compared to interpolated ground truth at cut+horizon",
		"hybrid = the stage's shard-shared route prior with dead-reckoning fallback; negative delta = hybrid beats pure dead reckoning")
	return t
}

// E21 measures what the streaming anomaly lane's continuous detectors
// are worth against injected ground truth: reporting-gap recognition
// against scheduled dark windows, the possible-rendezvous CEP against
// dark meetings, and behavior-profile score separation for vessels
// steered far off their own history. What the stage costs the ingest
// hot path is perfbench's anomaly.append_ns_per_rec.
func E21(seed int64) Table {
	// Identity spoofing silences the true MMSI without a dark label, which
	// would miscount honest gap detections as false positives — off here.
	// Dark rendezvous are scheduled explicitly (DefaultAnomalyRates leaves
	// them to the operator) so the CEP matcher has labelled meetings.
	dcfg := sim.Config{Seed: seed + 1, NumVessels: 300, Duration: 3 * time.Hour, TickSec: 5}
	dcfg.DefaultAnomalyRates()
	dcfg.SpoofShipFrac = 0
	dcfg.DarkRendezvousFrac = 0.08
	drun, err := sim.Simulate(dcfg)
	if err != nil {
		panic(err)
	}
	stages := anomaly.NewStages(4, anomaly.Config{RecentGaps: 1 << 14})
	for i := range drun.Positions {
		o := &drun.Positions[i]
		st := model.FromReport(o.At, &o.Report)
		if err := stages.ShardFor(st.MMSI).Append(st); err != nil {
			panic(err)
		}
	}
	firstAt, lastAt := map[uint32]time.Time{}, map[uint32]time.Time{}
	for i := range drun.Positions {
		o := &drun.Positions[i]
		if _, ok := firstAt[o.Report.MMSI]; !ok {
			firstAt[o.Report.MMSI] = o.At
		}
		lastAt[o.Report.MMSI] = o.At
	}
	overlaps := func(aFrom, aTo, bFrom, bTo time.Time) bool {
		return aFrom.Before(bTo) && bFrom.Before(aTo)
	}

	// Gap recognition vs scheduled dark windows. The truth denominator
	// counts only windows the stream can reveal: long enough to cross the
	// gap threshold, started after the vessel's first received report and
	// ended before its last (the silence has a closing edge).
	darks := map[uint32][]sim.TruthEvent{}
	for _, ev := range drun.Events {
		if ev.Kind == sim.EventDark {
			darks[ev.MMSI] = append(darks[ev.MMSI], ev)
		}
	}
	gaps := stages.RecentGaps()
	gapTP := 0
	for _, g := range gaps {
		for _, ev := range darks[g.MMSI] {
			if overlaps(g.Before.At, g.After.At, ev.Start, ev.End) {
				gapTP++
				break
			}
		}
	}
	revealable := func(ev sim.TruthEvent) bool {
		return ev.End.Sub(ev.Start) >= query.AnomalyGapThreshold &&
			ev.Start.After(firstAt[ev.MMSI]) && ev.End.Before(lastAt[ev.MMSI])
	}
	var darkWindows, darkHit int
	for _, evs := range darks {
		for _, ev := range evs {
			if !revealable(ev) {
				continue
			}
			darkWindows++
			for _, g := range gaps {
				if g.MMSI == ev.MMSI && overlaps(g.Before.At, g.After.At, ev.Start, ev.End) {
					darkHit++
					break
				}
			}
		}
	}

	// Possible-rendezvous CEP vs dark meetings: the truth set is the
	// rendezvous whose both participants hold a dark window over the
	// meeting (revealable as above); an alert matches on the unordered
	// pair plus window overlap.
	type pair struct{ a, b uint32 }
	norm := func(a, b uint32) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	coverDark := func(mmsi uint32, ev sim.TruthEvent) bool {
		for _, d := range darks[mmsi] {
			if overlaps(d.Start, d.End, ev.Start, ev.End) && revealable(d) {
				return true
			}
		}
		return false
	}
	meetings := map[pair]sim.TruthEvent{}
	for _, ev := range drun.Events {
		if ev.Kind == sim.EventRendezvous && coverDark(ev.MMSI, ev) && coverDark(ev.Other, ev) {
			meetings[norm(ev.MMSI, ev.Other)] = ev
		}
	}
	alerts := stages.Alerts()
	alertTP, meetingsHit := 0, map[pair]bool{}
	for _, a := range alerts {
		ev, ok := meetings[norm(a.MMSI, a.Other)]
		if ok && overlaps(a.Start, a.At, ev.Start, ev.End) {
			alertTP++
			meetingsHit[norm(a.MMSI, a.Other)] = true
		}
	}

	// Behavior-profile separation: vessels steered off course while
	// transmitting honestly vs vessels with no injected behaviour at all.
	devSet, anomalous := map[uint32]bool{}, map[uint32]bool{}
	for _, ev := range drun.Events {
		if ev.Kind == sim.EventCourseDeviation {
			devSet[ev.MMSI] = true
		}
		anomalous[ev.MMSI] = true
		if ev.Other != 0 {
			anomalous[ev.Other] = true
		}
	}
	ranked, _ := stages.RankedAnomalies(0)
	var devSum, cleanSum float64
	var devN, cleanN int
	for _, v := range ranked {
		switch {
		case devSet[v.MMSI]:
			devSum += v.Score
			devN++
		case !anomalous[v.MMSI]:
			cleanSum += v.Score
			cleanN++
		}
	}

	t := Table{
		ID: "E21", Title: "streaming anomaly lane: detection quality",
		Cols: []string{"measurement", "n", "result", "baseline", "delta"},
	}
	t.Rows = append(t.Rows,
		[]string{"gap recognition vs dark windows", f("%d gaps / %d windows", len(gaps), darkWindows),
			f("%.2f recall", ratio(darkHit, darkWindows)),
			f("%.2f dark base rate", ratio(gapTP, len(gaps))), "—"},
		[]string{"possible-rendezvous CEP vs dark meetings", f("%d alerts / %d meetings", len(alerts), len(meetings)),
			f("%.2f precision", ratio(alertTP, len(alerts))),
			f("%.2f recall", ratio(len(meetingsHit), len(meetings))),
			f("%.0f× over base rate", ratio(alertTP, len(alerts))/ratio(gapTP, len(gaps)))},
	)
	if devN > 0 && cleanN > 0 && cleanSum > 0 {
		devMean, cleanMean := devSum/float64(devN), cleanSum/float64(cleanN)
		t.Rows = append(t.Rows, []string{
			"profile shift score, course-deviation vs clean", f("%d dev / %d clean vessels", devN, cleanN),
			f("%.3f mean score", devMean), f("%.3f mean score", cleanMean),
			f("%.1f× separation", devMean/cleanMean)})
	}
	t.Notes = append(t.Notes,
		"gap recall counts revealable dark windows (≥ gap threshold, closed by a later report) the stage recognised; most detected gaps are honest satellite-coverage silences, so the labelled share is a base rate, not detector precision — a silence alone is weak evidence, which is why the CEP correlates pairs",
		"rendezvous truth = scheduled meetings whose both participants hold a revealable dark window over the meeting; alerts match on the unordered pair plus window overlap",
		"profile row: mean distribution-shift score of honestly-transmitting course-deviation vessels vs vessels with no injected behaviour (higher separation = better ranking)",
		f("floors at seed 42 (TestE21DetectionQuality): gap recall ≥ %.2f, rendezvous recall ≥ %.2f, rendezvous precision ≥ %.2f, profile separation ≥ %.1f×",
			e21Floors.GapRecall, e21Floors.RendezvousRecall, e21Floors.RendezvousPrecision, e21Floors.ProfileSeparation))
	return t
}

// e21Floors are the detection-quality bounds E21 must meet at seed 42,
// the benchrunner record's seed; TestE21DetectionQuality fails below them.
var e21Floors = struct {
	GapRecall, RendezvousRecall, RendezvousPrecision, ProfileSeparation float64
}{GapRecall: 0.95, RendezvousRecall: 0.9, RendezvousPrecision: 0.15, ProfileSeparation: 1.2}

// ratio is a safe divide for precision/recall rows (0/0 reads as 0).
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
