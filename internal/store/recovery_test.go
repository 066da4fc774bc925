package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/tstore"
)

// writeWAL appends recs through a fresh archive in dir and closes it,
// returning the path of the segment that received them.
func writeWAL(t *testing.T, dir string, recs []model.VesselState) string {
	t.Helper()
	arch, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Backend.Append(recs); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, arch.Backend.seq)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestTornWriteTruncation is the crash-fixture matrix: a segment cut at
// every interesting byte boundary must recover exactly the records before
// the tear, truncate the file back to the last valid frame, and leave the
// archive appendable.
func TestTornWriteTruncation(t *testing.T) {
	const nRecs = 10
	const frameSize = frameHeadSize + recordSize
	cases := []struct {
		name     string
		cutAfter int64 // file size to truncate to
		wantRecs int
	}{
		{"mid frame header", segHeaderSize + 5*frameSize + 3, 5},
		{"mid payload", segHeaderSize + 7*frameSize + frameHeadSize + recordSize/2, 7},
		{"after full frame", segHeaderSize + 4*frameSize, 4},
		{"empty tail after header", segHeaderSize, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var recs []model.VesselState
			for i := 0; i < nRecs; i++ {
				recs = append(recs, sample(uint32(1+i), i*10, 40+float64(i), 5))
			}
			seg := writeWAL(t, dir, recs)
			if err := os.Truncate(seg, tc.cutAfter); err != nil {
				t.Fatal(err)
			}

			re, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if re.Stats.WALRecords != tc.wantRecs {
				t.Fatalf("recovered %d records, want %d", re.Stats.WALRecords, tc.wantRecs)
			}
			wantTorn := tc.cutAfter - int64(segHeaderSize) - int64(tc.wantRecs*frameSize)
			if re.Stats.TornBytes != wantTorn {
				t.Fatalf("torn bytes = %d, want %d", re.Stats.TornBytes, wantTorn)
			}
			if fi, err := os.Stat(seg); err != nil {
				t.Fatal(err)
			} else if want := int64(segHeaderSize + tc.wantRecs*frameSize); fi.Size() != want {
				t.Fatalf("segment not truncated to last valid record: size %d, want %d", fi.Size(), want)
			}

			// The archive keeps working: append, close, recover again.
			extra := sample(200, 999, 50, 10)
			if err := re.Backend.Append([]model.VesselState{extra}); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if got := re2.Stats.Total(); got != tc.wantRecs+1 {
				t.Fatalf("after post-tear append: recovered %d, want %d", got, tc.wantRecs+1)
			}
			if _, ok := re2.Live().Get(200); !ok {
				t.Fatal("post-tear append lost")
			}
		})
	}
}

// TestCorruptCRCTruncates flips a payload byte of the final frame: the
// checksum must catch it and recovery must drop exactly that record.
func TestCorruptCRCTruncates(t *testing.T) {
	dir := t.TempDir()
	var recs []model.VesselState
	for i := 0; i < 6; i++ {
		recs = append(recs, sample(uint32(1+i), i*10, 40+float64(i), 5))
	}
	seg := writeWAL(t, dir, recs)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF // inside the last frame's payload
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats.WALRecords != 5 {
		t.Fatalf("recovered %d records, want 5 (corrupt final frame dropped)", re.Stats.WALRecords)
	}
	if re.Stats.TornBytes != frameHeadSize+recordSize {
		t.Fatalf("torn bytes = %d, want one frame", re.Stats.TornBytes)
	}
}

// TestCorruptMidSegmentIsError pins the integrity stance: only the newest
// segment may be torn. A checksum failure in a sealed (non-final) segment
// is data corruption and recovery must refuse rather than silently
// truncate away good newer segments.
func TestCorruptMidSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 512, CompactEvery: -1}
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []model.VesselState
	for i := 0; i < 100; i++ {
		recs = append(recs, sample(uint32(1+i%5), i*10, 40, 5))
	}
	if err := arch.Backend.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("recovery accepted a corrupt sealed segment")
	}
}

// TestReplayEqualsInMemory is the WAL-replay property test: for random
// batches appended through the full disk lifecycle — rotations,
// compactions, reopens — the recovered store must equal an in-memory
// store fed the same (quantised) records, under every fsync policy
// (SyncAlways is what `maritimed -fsync always` selects).
func TestReplayEqualsInMemory(t *testing.T) {
	for _, pol := range []struct {
		name string
		sync SyncPolicy
	}{{"rotate", SyncRotate}, {"always", SyncAlways}, {"never", SyncNever}} {
		t.Run(pol.name, func(t *testing.T) {
			testReplayEqualsInMemory(t, pol.sync)
		})
	}
}

func testReplayEqualsInMemory(t *testing.T, policy SyncPolicy) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 4096, CompactEvery: 2, Sync: policy}
	mem := tstore.New()

	i := 0
	for round := 0; round < 4; round++ {
		arch, err := Open(cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Verify this round's recovery against the reference before
		// appending more.
		if !reflect.DeepEqual(states(arch.Store), states(mem)) {
			t.Fatalf("round %d: recovered store diverges from reference", round)
		}
		var batch []model.VesselState
		for j := 0; j < 250+rng.Intn(250); j++ {
			s := randState(rng, i)
			i++
			mem.Append(Quantize(s))
			batch = append(batch, s)
			if len(batch) >= 1+rng.Intn(40) {
				if err := arch.Backend.Append(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := arch.Backend.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := arch.Close(); err != nil {
			t.Fatal(err)
		}
	}

	final, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if mem.Len() != final.Store.Len() {
		t.Fatalf("recovered %d points, reference holds %d", final.Store.Len(), mem.Len())
	}
	if !reflect.DeepEqual(states(final.Store), states(mem)) {
		t.Fatal("final recovered store diverges from in-memory reference")
	}
}

// TestHeaderlessFinalSegment pins the pre-header crash window: a final
// segment of zero (or partial-header) length is fully torn — recovery
// must drop the file, not error, and the archive must keep working.
func TestHeaderlessFinalSegment(t *testing.T) {
	for _, size := range []int64{0, segHeaderSize - 2} {
		dir := t.TempDir()
		recs := []model.VesselState{sample(1, 0, 40, 5), sample(1, 10, 40.1, 5)}
		seg := writeWAL(t, dir, recs)
		next := segPath(dir, 2) // the segment a crashed restart opened but never flushed
		if seg == next {
			t.Fatal("unexpected segment numbering")
		}
		if err := os.WriteFile(next, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if re.Stats.WALRecords != 2 {
			t.Fatalf("size %d: recovered %d records, want 2", size, re.Stats.WALRecords)
		}
		if re.Stats.TornBytes != size {
			t.Fatalf("size %d: torn bytes = %d", size, re.Stats.TornBytes)
		}
		if _, err := os.Stat(next); !os.IsNotExist(err) {
			t.Fatalf("size %d: headerless segment survived recovery", size)
		}
		if err := re.Backend.Append([]model.VesselState{sample(2, 20, 41, 6)}); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if re2.Stats.Total() != 3 {
			t.Fatalf("size %d: second recovery found %d records, want 3", size, re2.Stats.Total())
		}
		re2.Close()
	}
}

// TestWriterLockExcludesSecondWriter pins the archive-directory lock: a
// second concurrent writer must fail fast, and the lock must release on
// Close. Read-only opens are lockless and coexist with a writer.
func TestWriterLockExcludesSecondWriter(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no flock on this platform: writer exclusion is advisory-only (lock_fallback.go)")
	}
	dir := t.TempDir()
	arch, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("second writer acquired a locked archive")
	}
	if _, err := OpenReadOnly(Config{Dir: dir}); err != nil {
		t.Fatalf("read-only open blocked by writer lock: %v", err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("lock not released on Close: %v", err)
	}
	re.Close()
}

// TestOpenReadOnlyMutatesNothing pins the read-only contract: recovery of
// a torn archive reads the valid prefix but leaves every byte on disk as
// it found it — no truncation, no cleanup, no new segment, no lock file.
func TestOpenReadOnlyMutatesNothing(t *testing.T) {
	dir := t.TempDir()
	var recs []model.VesselState
	for i := 0; i < 8; i++ {
		recs = append(recs, sample(uint32(1+i), i*10, 40+float64(i), 5))
	}
	seg := writeWAL(t, dir, recs)
	const frameSize = frameHeadSize + recordSize
	cut := int64(segHeaderSize + 5*frameSize + 3) // torn mid-header of frame 6
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "LOCK"))
	before := dirListing(t, dir)

	ro, err := OpenReadOnly(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ro.Backend != nil || !ro.ReadOnly {
		t.Fatal("read-only archive exposes a backend")
	}
	if ro.Stats.WALRecords != 5 {
		t.Fatalf("recovered %d records, want 5", ro.Stats.WALRecords)
	}
	if ro.Stats.TornBytes != cut-int64(segHeaderSize+5*frameSize) {
		t.Fatalf("torn bytes = %d", ro.Stats.TornBytes)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("read-only open mutated the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// dirListing returns name→size for every file in dir.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

func TestOpenReadOnlyMissingDirErrors(t *testing.T) {
	if _, err := OpenReadOnly(Config{Dir: filepath.Join(t.TempDir(), "nope")}); err == nil {
		t.Fatal("read-only open of a missing directory should fail, not create it")
	}
}

// Read-only recovery must also refuse mid-archive corruption — only the
// final segment's tail may be skipped.
func TestOpenReadOnlyCorruptMidSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 512, CompactEvery: -1}
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []model.VesselState
	for i := 0; i < 100; i++ {
		recs = append(recs, sample(uint32(1+i%5), i*10, 40, 5))
	}
	if err := arch.Backend.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReadOnly(cfg); err == nil {
		t.Fatal("read-only recovery accepted a corrupt sealed segment")
	}
}
