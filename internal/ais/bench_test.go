package ais

import (
	"fmt"
	"testing"
)

// Decode-path allocation benchmarks (the ROADMAP hot-path item): together
// with BenchmarkDecodePosition (ais_test.go) — the single-fragment case
// that is the overwhelming bulk of AIS traffic — this pins the allocs/op
// that bound the single-worker decode ceiling (perfbench backfill's
// ais.decode_ns_per_line). The multi-fragment case exercises payload reassembly and the
// pending-fragment map. EXPERIMENTS.md records the before/after numbers.

func benchSentences(b *testing.B, msg any) []string {
	b.Helper()
	lines, err := EncodeSentences(msg, 3, "A")
	if err != nil {
		b.Fatal(err)
	}
	return lines
}

func BenchmarkDecodeMultiFragment(b *testing.B) {
	lines := benchSentences(b, &StaticVoyage{
		MMSI: 235098765, IMO: 9074729, CallSign: "GBXX7",
		ShipName: "EVER GIVEN", ShipType: 70, Destination: "ROTTERDAM",
		DimBow: 200, DimStern: 50, DimPort: 20, DimStarb: 20,
		Draught: 12.5,
	})
	if len(lines) < 2 {
		b.Fatalf("expected a multi-fragment message, got %d lines", len(lines))
	}
	d := NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			if _, err := d.Decode(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestDecodeMultiFragmentAllocs pins the multi-fragment steady state at
// ≤4 allocs per message (down from 10 before text-field interning, and
// under the ROADMAP's ≤6 target): the decoded struct, the bit reader and
// the fragment linking key — the decoded strings are served from the
// decoder's intern table.
func TestDecodeMultiFragmentAllocs(t *testing.T) {
	lines, err := EncodeSentences(&StaticVoyage{
		MMSI: 235098765, IMO: 9074729, CallSign: "GBXX7",
		ShipName: "EVER GIVEN", ShipType: 70, Destination: "ROTTERDAM",
		DimBow: 200, DimStern: 50, DimPort: 20, DimStarb: 20,
		Draught: 12.5,
	}, 3, "A")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("expected a multi-fragment message, got %d lines", len(lines))
	}
	d := NewDecoder()
	var got *StaticVoyage
	decodeAll := func() {
		for _, l := range lines {
			msg, err := d.Decode(l)
			if err != nil {
				t.Fatal(err)
			}
			if msg != nil {
				got = msg.(*StaticVoyage)
			}
		}
	}
	decodeAll() // warm the intern table and reusable buffers
	if allocs := testing.AllocsPerRun(200, decodeAll); allocs > 4 {
		t.Fatalf("multi-fragment decode: %.1f allocs/op, want ≤4", allocs)
	}
	// Interning must not change the decoded values.
	if got.ShipName != "EVER GIVEN" || got.CallSign != "GBXX7" || got.Destination != "ROTTERDAM" {
		t.Fatalf("interned decode corrupted fields: %+v", got)
	}
}

// TestStringTableBounded pins the intern-table cap: a feed of
// never-repeating names must not grow the table past stringTableCap.
func TestStringTableBounded(t *testing.T) {
	var tab stringTable
	for i := 0; i < 3*stringTableCap; i++ {
		tab.lookup([]byte(fmt.Sprintf("VESSEL %d", i)))
	}
	if len(tab.m) > stringTableCap {
		t.Fatalf("intern table grew to %d entries (cap %d)", len(tab.m), stringTableCap)
	}
	// Past the cap, lookups still return correct (uninterned) strings.
	if s := tab.lookup([]byte("OVERFLOW NAME")); s != "OVERFLOW NAME" {
		t.Fatalf("post-cap lookup returned %q", s)
	}
}
