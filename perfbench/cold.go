package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tstore"
)

// clearTierFields blanks the stats fields that legitimately differ
// between an evicted and a fully resident archive.
func clearTierFields(res *query.Result) {
	if res.Stats == nil {
		return
	}
	for i := range res.Stats.Sources {
		res.Stats.Sources[i].ResidentPoints = 0
		res.Stats.Sources[i].EvictedVessels = 0
	}
}

// coldArchive is what set-up leaves for the measured phase.
type coldArchive struct {
	dataDir, remoteDir string
	archived           int64
	reqs               []query.Request
	want               [][]byte
}

// writeColdArchive writes the first lines of the feed, synopsis off,
// into a data dir whose sealed segments migrate to an object store, and
// computes reference answers on a fully resident copy of what it wrote.
func (v *env) writeColdArchive(f *feed, first int, dir string) (*coldArchive, error) {
	ca := &coldArchive{dataDir: filepath.Join(dir, "data"), remoteDir: filepath.Join(dir, "remote")}
	remote, err := store.NewFSObjects(ca.remoteDir)
	if err != nil {
		return nil, fmt.Errorf("opening the object store: %w", err)
	}
	arch, err := store.Open(v.storeConfig(ca.dataDir, remote))
	if err != nil {
		return nil, fmt.Errorf("opening the archive: %w", err)
	}
	cfg := v.engineConfig(f, arch.Backend)
	d := v.startEngine(arch, cfg, nil, ca.dataDir)
	for _, l := range f.lines[:first] {
		d.fd.send(l)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	ca.archived = d.e.Snapshot().Archived

	ro, err := store.OpenReadOnly(v.storeConfig(ca.dataDir, remote))
	if err != nil {
		return nil, fmt.Errorf("reading the archive back: %w", err)
	}
	ref := ingest.New(v.engineConfig(f, nil))
	ref.Resume(ro.Store)
	ref.Start(v.ctx)
	ca.reqs = checkSet(v.seed, f, f.posBefore(first))
	ca.want, err = answers(ca.reqs, ref.Query, clearTierFields)
	ref.Close()
	ref.Wait()
	return ca, err
}

// coldRestartReps is how many times cold-archive restarts its daemon
// before the paced phase; restart_s is the median.
const coldRestartReps = 9

// runColdArchive restarts a daemon over an archive larger than its
// memory budget, checks it against the resident reference, then paces a
// low-rate feed while one client issues Zipf-skewed historical queries.
func runColdArchive(v *env) error {
	var f *feed
	var ca *coldArchive
	var setupS []float64
	var first int
	for r := 0; r < setupReps; r++ {
		if ca != nil {
			removeAll(filepath.Dir(ca.dataDir))
		}
		t0 := time.Now()
		var err error
		if f, err = genFeed(v.seed, v.w.Vessels, v.w.FeedMinutes); err != nil {
			return err
		}
		first = int(float64(len(f.lines)) * v.w.PreloadShare)
		if ca, err = v.writeColdArchive(f, first, filepath.Join(v.dir, fmt.Sprintf("cold-%d", r))); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	v.e2e("setup_s", median(setupS), "s", len(setupS))
	v.setHeapBase()

	// The measured phase starts with restarts under a memory budget.
	var objects objectTimes
	budget := int64(float64(ca.archived)*v.w.MemoryBudgetShare) * int64(tstore.PointBytes)
	rs, err := v.restarts(f, ca.dataDir, ca.remoteDir, coldRestartReps, budget, &objects)
	if err != nil {
		return err
	}
	v.reportRestart(rs, ca.archived)
	r := rs[len(rs)-1]
	sp := v.tr.beginFG("tier.check")
	r.e.Tier().Check()
	sp.end()
	v.compareAnswers(ca.reqs, ca.want, r.e.Query, clearTierFields)

	d := &daemon{arch: r.arch, e: r.e, shim: r.shim, lines: make(chan ingest.Line, 1024), dir: filepath.Join(r.dir, "data")}
	r.e.StartLines(v.ctx, d.lines, nil)
	res, err := v.measureOpenLoop(f, d, first, newQueryGen(v.seed, f, v.w))
	if err != nil {
		return err
	}
	data, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	objs, err := dirBytes(filepath.Join(r.dir, "remote"), "tier")
	if err != nil {
		return err
	}
	v.e2e("store_bytes_per_point", ratio(float64(data+objs), float64(res.archived)), "B", int(res.archived))
	v.reportObjects(objects.putUS.values(), objects.getUS.values())
	return v.finishTraced(f, res.fedLines, d.shim)
}
