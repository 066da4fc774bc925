package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/sim"
	"repro/internal/zones"
)

// feed is a workload's generated input: the NMEA lines, stamped with the
// receiver time of the observation they encode, plus what the benchmark
// needs to check answers and build queries. The program under test sees
// only the lines.
type feed struct {
	lines     []ingest.Line
	positions int // position-report lines (one sentence each)
	statics   int // static/voyage messages (two sentences each)

	// pos lists the position reports in line order.
	pos []posRef
	// lineOf maps a vessel state (MMSI, receive time) to the first line
	// carrying it, so an update on a subscription can be traced back to
	// the line that caused it.
	lineOf map[stateKey]int
	// byVessel lists, per MMSI, indexes into pos in time order.
	byVessel map[uint32][]int
	mmsis    []uint32 // distinct, ascending

	bounds     geo.Rect
	zones      *zones.ZoneSet
	start, end time.Time
}

type posRef struct {
	line int
	mmsi uint32
	at   time.Time
	pt   geo.Point
}

type stateKey struct {
	mmsi uint32
	at   int64
}

// genFeed simulates vessels for the given duration with the simulator's
// paper-calibrated defect profile and encodes every received position
// and static report as AIVDM sentences, merged in time order.
func genFeed(seed int64, vessels, minutes int) (*feed, error) {
	cfg := sim.Config{Seed: seed, NumVessels: vessels, Duration: time.Duration(minutes) * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("simulating: %w", err)
	}
	f := &feed{
		lineOf:   make(map[stateKey]int, len(run.Positions)),
		byVessel: make(map[uint32][]int),
		bounds:   run.Config.World.Bounds,
		zones:    run.Config.World.Zones,
		lines:    make([]ingest.Line, 0, len(run.Positions)+2*len(run.Statics)),
		pos:      make([]posRef, 0, len(run.Positions)),
	}
	si := 0
	emitStatic := func() error {
		so := &run.Statics[si]
		lines, err := ais.EncodeSentences(&so.Msg, si, "B")
		if err != nil {
			return fmt.Errorf("encoding static %d: %w", si, err)
		}
		for _, l := range lines {
			f.lines = append(f.lines, ingest.Line{At: so.At, Text: l})
		}
		f.statics++
		si++
		return nil
	}
	for i := range run.Positions {
		o := &run.Positions[i]
		for si < len(run.Statics) && run.Statics[si].At.Before(o.At) {
			if err := emitStatic(); err != nil {
				return nil, err
			}
		}
		lines, err := ais.EncodeSentences(&o.Report, i, "A")
		if err != nil {
			return nil, fmt.Errorf("encoding position %d: %w", i, err)
		}
		if len(lines) != 1 {
			return nil, fmt.Errorf("position %d encoded as %d sentences", i, len(lines))
		}
		idx := len(f.lines)
		f.lines = append(f.lines, ingest.Line{At: o.At, Text: lines[0]})
		k := stateKey{o.Report.MMSI, o.At.UnixNano()}
		if _, dup := f.lineOf[k]; !dup {
			f.lineOf[k] = idx
		}
		f.byVessel[o.Report.MMSI] = append(f.byVessel[o.Report.MMSI], len(f.pos))
		f.pos = append(f.pos, posRef{line: idx, mmsi: o.Report.MMSI, at: o.At, pt: o.Report.Position})
		f.positions++
	}
	for si < len(run.Statics) {
		if err := emitStatic(); err != nil {
			return nil, err
		}
	}
	if len(f.pos) == 0 {
		return nil, fmt.Errorf("simulation produced no positions")
	}
	for m := range f.byVessel {
		f.mmsis = append(f.mmsis, m)
	}
	sort.Slice(f.mmsis, func(i, j int) bool { return f.mmsis[i] < f.mmsis[j] })
	f.start, f.end = f.pos[0].at, f.pos[len(f.pos)-1].at
	return f, nil
}

// posBefore is the number of position reports among the first n lines.
func (f *feed) posBefore(n int) int {
	return sort.Search(len(f.pos), func(i int) bool { return f.pos[i].line >= n })
}
