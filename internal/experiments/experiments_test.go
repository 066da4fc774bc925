package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkTable validates structural invariants every experiment table must
// satisfy: an ID, a title, consistent column counts, and non-empty cells
// in the first column.
func checkTable(t *testing.T, tbl Table) {
	t.Helper()
	if tbl.ID == "" || tbl.Title == "" {
		t.Fatalf("table missing identity: %+v", tbl)
	}
	if len(tbl.Cols) == 0 || len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", tbl.ID)
	}
	for i, r := range tbl.Rows {
		if len(r) > len(tbl.Cols) {
			t.Fatalf("%s row %d has %d cells for %d columns", tbl.ID, i, len(r), len(tbl.Cols))
		}
		if len(r) == 0 || r[0] == "" {
			t.Fatalf("%s row %d has empty label", tbl.ID, i)
		}
	}
	out := tbl.Format()
	if !strings.Contains(out, tbl.ID) || !strings.Contains(out, tbl.Cols[0]) {
		t.Fatalf("%s: Format output malformed:\n%s", tbl.ID, out)
	}
}

func TestE1Shape(t *testing.T) {
	tbl := E1(7, 80, 10*time.Minute)
	checkTable(t, tbl)
	// The coverage note should include a rendered map.
	foundMap := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "\n") {
			foundMap = true
		}
	}
	if !foundMap {
		t.Error("E1 should embed the coverage map")
	}
}

func TestE2Shape(t *testing.T) {
	tbl := E2(7)
	checkTable(t, tbl)
	// At least one configuration must reach the paper's 95% band.
	found := false
	for _, r := range tbl.Rows {
		if strings.HasSuffix(r[2], "%") {
			var v float64
			if _, err := parsePct(r[2], &v); err == nil && v >= 95 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no configuration reached 95%% compression:\n%s", tbl.Format())
	}
}

// parsePct extracts the leading numeric value from strings like "94.3%",
// "5744" or "99.8% …".
func parsePct(s string, v *float64) (int, error) {
	s = strings.TrimSpace(s)
	end := 0
	for end < len(s) && (s[end] == '.' || s[end] == '-' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	x, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("no number in %q: %w", s, err)
	}
	*v = x
	return 1, nil
}

func TestE3RecoversRate(t *testing.T) {
	tbl := E3(7)
	checkTable(t, tbl)
	var est float64
	for _, r := range tbl.Rows {
		if r[0] == "estimated error rate" {
			if _, err := parsePct(r[1], &est); err != nil {
				t.Fatal(err)
			}
		}
	}
	if est < 3 || est > 7 {
		t.Errorf("estimated rate %.1f%% not near 5%%", est)
	}
}

func TestE4OpenWorldBeatsClosed(t *testing.T) {
	tbl := E4(7)
	checkTable(t, tbl)
	var closed, open float64
	for _, r := range tbl.Rows {
		switch r[0] {
		case "closed-world recall":
			parsePct(r[1], &closed)
		case "open-world coverage":
			parsePct(r[1], &open)
		}
	}
	if open < closed {
		t.Errorf("open-world coverage (%.0f%%) below closed-world recall (%.0f%%)", open, closed)
	}
}

func TestE5ThroughputExceedsWorldFeed(t *testing.T) {
	tbl := E5(7, []int{1})
	checkTable(t, tbl)
	// Column 3 is msg/s; the world-average requirement is ~208 msg/s.
	var rate float64
	parsePct(tbl.Rows[0][3], &rate)
	if rate < 10000 {
		t.Errorf("single-shard throughput %.0f msg/s suspiciously low", rate)
	}
}

func TestE7FinerGridsReduceError(t *testing.T) {
	tbl := E7(7)
	checkTable(t, tbl)
	var first, last float64
	parsePct(tbl.Rows[0][2], &first)
	parsePct(tbl.Rows[len(tbl.Rows)-1][2], &last)
	if last >= first {
		t.Errorf("finer grid should reduce RMSE: %.3f -> %.3f", first, last)
	}
}

func TestE10DiscountingWins(t *testing.T) {
	tbl := E10(7)
	checkTable(t, tbl)
	// At the highest conflict row, discounted Dempster must beat naive.
	last := tbl.Rows[len(tbl.Rows)-1]
	var naive, disc float64
	parsePct(last[2], &naive)
	parsePct(last[4], &disc)
	if disc <= naive {
		t.Errorf("discounted Dempster (%.0f%%) should beat naive (%.0f%%) under conflict", disc, naive)
	}
}

func TestE11IndexesBeatScan(t *testing.T) {
	tbl := E11(7, 20000)
	checkTable(t, tbl)
	var scanQ, gridQ float64
	for _, r := range tbl.Rows {
		switch r[0] {
		case "scan":
			parsePct(r[2], &scanQ)
		case "grid":
			parsePct(r[2], &gridQ)
		}
	}
	if gridQ <= scanQ {
		t.Errorf("grid (%.0f q/s) should beat scan (%.0f q/s)", gridQ, scanQ)
	}
}

func TestE12BlockingFaster(t *testing.T) {
	tbl := E12(7, 300)
	checkTable(t, tbl)
	var blocked, exhaustive float64
	for _, r := range tbl.Rows {
		switch r[0] {
		case "blocked":
			parsePct(r[4], &blocked)
		case "exhaustive":
			parsePct(r[4], &exhaustive)
		}
	}
	if blocked <= exhaustive {
		t.Errorf("blocking (%.0f links/s) should beat exhaustive (%.0f links/s)", blocked, exhaustive)
	}
}

func TestE13AllLevelsBuild(t *testing.T) {
	tbl := E13(7)
	checkTable(t, tbl)
	if len(tbl.Rows) != 4 {
		t.Errorf("expected 4 zoom levels, got %d", len(tbl.Rows))
	}
}

// TestE21DetectionQuality holds the anomaly lane to floors it can fail:
// at seed 42 (the benchrunner record's seed) gap recall, rendezvous
// recall and precision, and course-deviation/clean profile separation
// must each clear e21Floors.
func TestE21DetectionQuality(t *testing.T) {
	tbl := E21(42)
	checkTable(t, tbl)
	cell := func(label string, col int) float64 {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == label {
				var v float64
				if _, err := parsePct(r[col], &v); err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("E21 has no %q row:\n%s", label, tbl.Format())
		return 0
	}
	for _, c := range []struct {
		name       string
		got, floor float64
	}{
		{"gap recall", cell("gap recognition vs dark windows", 2), e21Floors.GapRecall},
		{"rendezvous recall", cell("possible-rendezvous CEP vs dark meetings", 3), e21Floors.RendezvousRecall},
		{"rendezvous precision", cell("possible-rendezvous CEP vs dark meetings", 2), e21Floors.RendezvousPrecision},
		{"profile separation", cell("profile shift score, course-deviation vs clean", 4), e21Floors.ProfileSeparation},
	} {
		if c.got < c.floor {
			t.Errorf("%s %.2f below floor %.2f:\n%s", c.name, c.got, c.floor, tbl.Format())
		}
	}
}
