package track

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/sim"
)

var t0 = time.Date(2017, 3, 21, 12, 0, 0, 0, time.UTC)

// vesselStates builds one vessel's trajectory: a steady north-east run
// in the Ligurian Sea, 1-minute cadence. The 0.002°/min step implies
// ~5 kn, kinematically consistent with the reported speed so the
// quality checks see a clean feed (like the vast majority of real
// traffic — benchmarks on this fixture measure the clean-path cost).
func vesselStates(mmsi uint32, v, n int) []model.VesselState {
	out := make([]model.VesselState, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, model.VesselState{
			MMSI: mmsi,
			At:   t0.Add(time.Duration(i) * time.Minute),
			Pos: geo.Point{
				Lat: 42.0 + float64(v)*0.3 + float64(i)*0.002,
				Lon: 5.0 + float64(v)*0.3 + float64(i)*0.002,
			},
			SpeedKn:   5.4,
			CourseDeg: 37,
		})
	}
	return out
}

// TestStageMatchesOfflineReplay pins the replay-equivalence contract:
// the online stage's fused state and quality score, fed record by
// record as the tee delivers them (concurrently across vessels, one
// goroutine each, exercised under -race), must equal what the offline
// derivation computes from the archived trajectory.
func TestStageMatchesOfflineReplay(t *testing.T) {
	const vessels, points = 6, 40
	s := NewStage(Config{})
	byVessel := make(map[uint32][]model.VesselState, vessels)
	for v := 1; v <= vessels; v++ {
		mmsi := uint32(201000000 + v)
		byVessel[mmsi] = vesselStates(mmsi, v, points)
	}

	var wg sync.WaitGroup
	for _, pts := range byVessel {
		wg.Add(1)
		go func(pts []model.VesselState) {
			defer wg.Done()
			for _, p := range pts {
				if err := s.Append(p); err != nil {
					t.Error(err)
				}
			}
		}(pts)
	}
	wg.Wait()

	if got := s.VesselCount(); got != vessels {
		t.Fatalf("VesselCount %d, want %d", got, vessels)
	}
	for mmsi, pts := range byVessel {
		online, ok := s.Track(mmsi)
		if !ok {
			t.Fatalf("vessel %d: no online track", mmsi)
		}
		offline := query.DeriveTrack(mmsi, pts)
		oj, _ := json.Marshal(online)
		fj, _ := json.Marshal(offline)
		if string(oj) != string(fj) {
			t.Errorf("vessel %d track: online != replay\nonline: %s\nreplay: %s", mmsi, oj, fj)
		}

		oq, ok := s.Quality(mmsi)
		if !ok {
			t.Fatalf("vessel %d: no online quality", mmsi)
		}
		fq := query.DeriveQuality(mmsi, pts)
		oj, _ = json.Marshal(oq)
		fj, _ = json.Marshal(fq)
		if string(oj) != string(fj) {
			t.Errorf("vessel %d quality: online != replay\nonline: %s\nreplay: %s", mmsi, oj, fj)
		}

		// Predictions read the shard-shared route model (trained on every
		// vessel's lanes), so they are richer than the single-trajectory
		// replay — pin the timeline and shape instead of exact equality.
		p, ok := s.Predict(mmsi, 15*time.Minute)
		if !ok || p == nil {
			t.Fatalf("vessel %d: no online prediction", mmsi)
		}
		last := pts[len(pts)-1]
		if !p.From.Equal(last.At) || !p.At.Equal(last.At.Add(15*time.Minute)) {
			t.Errorf("vessel %d prediction timeline off: %+v", mmsi, p)
		}
		if p.Method == "" || p.ConfidenceM <= 0 {
			t.Errorf("vessel %d prediction shape off: %+v", mmsi, p)
		}
	}

	// Unknown vessels answer ok=false on all three kinds.
	if _, ok := s.Track(999); ok {
		t.Error("unknown vessel answered a track")
	}
	if _, ok := s.Predict(999, time.Minute); ok {
		t.Error("unknown vessel answered a prediction")
	}
	if _, ok := s.Quality(999); ok {
		t.Error("unknown vessel answered a quality score")
	}
}

// TestRadarAssociation pins the fusion path: a contact near a tracked
// vessel is gated, assigned and committed to that vessel's track
// (identity bound by the assignment); a contact near nothing lands in
// the orphan tracker. Runs through Stages.Process so cross-shard homing
// is exercised too.
func TestRadarAssociation(t *testing.T) {
	ss := NewStages(2, Config{})
	a := vesselStates(201000001, 0, 10) // around 42.0, 5.0
	b := vesselStates(201000002, 8, 10) // around 44.4, 7.4 — far from a
	for _, pts := range [][]model.VesselState{a, b} {
		for _, p := range pts {
			if err := ss.ShardFor(p.MMSI).Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	lastA := a[len(a)-1]
	scanAt := lastA.At.Add(30 * time.Second)
	// The fleet advances 0.002°/min; put the contact on the extrapolated
	// path so it falls inside the predicted gate.
	nearPos := geo.Point{Lat: lastA.Pos.Lat + 0.001, Lon: lastA.Pos.Lon + 0.001}
	near := Detection{At: scanAt, Pos: nearPos, Station: 0}
	far := Detection{At: scanAt, Pos: geo.Point{Lat: 39.0, Lon: 2.0}, Station: 1}

	if n := ss.Process([]Detection{near, far}); n != 1 {
		t.Fatalf("Process fused %d contacts, want 1", n)
	}
	ts, ok := ss.ShardFor(lastA.MMSI).Track(lastA.MMSI)
	if !ok {
		t.Fatal("vessel lost after radar fusion")
	}
	if ts.Sources["radar"] != 1 || ts.Sources["ais"] != len(a) {
		t.Fatalf("sources after fusion: %v", ts.Sources)
	}
	if !ts.At.Equal(scanAt) {
		t.Fatalf("track At %v, want the scan instant %v", ts.At, scanAt)
	}
	if tsB, _ := ss.ShardFor(201000002).Track(201000002); tsB.Sources["radar"] != 0 {
		t.Fatalf("distant vessel caught the contact: %v", tsB.Sources)
	}
	if got := ss.OrphanCount(); got != 1 {
		t.Fatalf("OrphanCount %d, want 1", got)
	}

	// The radar update tightened (or at least did not corrupt) the track:
	// the fused position stays near the vessel's true line of advance.
	if d := geo.Distance(geo.Point{Lat: ts.Lat, Lon: ts.Lon}, nearPos); d > 500 {
		t.Fatalf("fused position drifted %.0f m from the contact", d)
	}

	// An empty batch and an empty stage set are no-ops.
	if n := ss.Process(nil); n != 0 {
		t.Fatalf("empty batch fused %d", n)
	}
	if n := (Stages{}).Process([]Detection{near}); n != 0 {
		t.Fatalf("empty stage set fused %d", n)
	}
}

// truthAt linearly interpolates a vessel's ground-truth position.
func truthAt(pts []sim.TruthPoint, at time.Time) (geo.Point, bool) {
	for i := 1; i < len(pts); i++ {
		if pts[i].At.Before(at) {
			continue
		}
		a, b := pts[i-1], pts[i]
		span := b.At.Sub(a.At).Seconds()
		if span <= 0 {
			return b.Pos, true
		}
		f := at.Sub(a.At).Seconds() / span
		return geo.Point{
			Lat: a.Pos.Lat + (b.Pos.Lat-a.Pos.Lat)*f,
			Lon: a.Pos.Lon + (b.Pos.Lon-a.Pos.Lon)*f,
		}, true
	}
	return geo.Point{}, false
}

// TestPredictAccuracy checks the stage's forecasts against simulator
// ground truth at 5- and 15-minute horizons: the hybrid predictor
// (route prior + dead-reckoning fallback) must not be meaningfully
// worse than the pure dead-reckoning baseline it falls back to.
func TestPredictAccuracy(t *testing.T) {
	run, err := sim.Simulate(sim.Config{Seed: 11, NumVessels: 25, Duration: 90 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	cut := run.Config.Start.Add(60 * time.Minute)

	s := NewStage(Config{})
	histories := map[uint32][]model.VesselState{}
	for i := range run.Positions {
		o := &run.Positions[i]
		if o.At.After(cut) {
			break
		}
		st := model.FromReport(o.At, &o.Report)
		if err := s.Append(st); err != nil {
			t.Fatal(err)
		}
		histories[st.MMSI] = append(histories[st.MMSI], st)
	}

	for _, horizon := range []time.Duration{5 * time.Minute, 15 * time.Minute} {
		var stageSum, drSum float64
		var n int
		for mmsi, pts := range histories {
			last := pts[len(pts)-1]
			// Need a real history and a recent fix, and the run must still
			// have truth at the target instant.
			if len(pts) < 10 || cut.Sub(last.At) > 10*time.Minute {
				continue
			}
			truth, ok := truthAt(run.Truth[mmsi], last.At.Add(horizon))
			if !ok {
				continue
			}
			p, ok := s.Predict(mmsi, horizon)
			if !ok {
				continue
			}
			drPos, ok := (forecast.DeadReckoning{}).Predict(
				&model.Trajectory{MMSI: mmsi, Points: pts}, horizon)
			if !ok {
				continue
			}
			stageSum += geo.Distance(geo.Point{Lat: p.Lat, Lon: p.Lon}, truth)
			drSum += geo.Distance(drPos, truth)
			n++
		}
		if n < 5 {
			t.Fatalf("horizon %v: only %d vessels usable", horizon, n)
		}
		stageMean, drMean := stageSum/float64(n), drSum/float64(n)
		t.Logf("horizon %v: %d vessels, stage mean error %.0f m, dead-reckoning %.0f m",
			horizon, n, stageMean, drMean)
		// The stage may beat DR (lane prior) or match it (fallback); it must
		// never be meaningfully worse.
		if stageMean > drMean*1.3+100 {
			t.Errorf("horizon %v: stage error %.0f m exceeds dead-reckoning bound (%.0f m)",
				horizon, stageMean, drMean*1.3+100)
		}
		if math.IsNaN(stageMean) || stageMean > 20000 {
			t.Errorf("horizon %v: stage error %.0f m implausible", horizon, stageMean)
		}
	}
}

// BenchmarkTrackerStage measures the tee-side cost of the stage: one
// archived record folded into its vessel's fused state (filter update,
// quality check, route training, ring write).
func BenchmarkTrackerStage(b *testing.B) {
	const vessels = 64
	states := make([]model.VesselState, 0, vessels*32)
	for v := 1; v <= vessels; v++ {
		states = append(states, vesselStates(uint32(201000000+v), v%10, 32)...)
	}
	s := NewStage(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := states[i%len(states)]
		// Keep time monotonic across passes: a wrapped clock would turn
		// every record into a (Sprintf-formatting) time-regression issue
		// and measure the defect path instead of the clean one.
		st.At = st.At.Add(time.Duration(i/len(states)) * time.Hour)
		if err := s.Append(st); err != nil {
			b.Fatal(err)
		}
	}
}
