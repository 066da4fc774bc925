package main

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/store"
)

// timedBackend wraps the engine's persistence backend in traced runs: it
// times every Append and Sync the flush stage makes and keeps a copy of
// the archived records, which the tee-stage replay feeds to track and
// anomaly stages of its own.
type timedBackend struct {
	inner    store.Backend
	tr       *tracer
	appendUS sampler
	syncMS   sampler

	mu       sync.Mutex
	archived []model.VesselState
}

func (b *timedBackend) Append(recs []model.VesselState) error {
	sp := b.tr.begin("store.append", nil)
	t0 := time.Now()
	err := b.inner.Append(recs)
	b.appendUS.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	sp.end()
	b.mu.Lock()
	b.archived = append(b.archived, recs...)
	b.mu.Unlock()
	return err
}

func (b *timedBackend) Sync() error {
	sp := b.tr.begin("store.sync", nil)
	t0 := time.Now()
	err := b.inner.Sync()
	b.syncMS.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	sp.end()
	return err
}

func (b *timedBackend) Close() error { return b.inner.Close() }

func (b *timedBackend) records() []model.VesselState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]model.VesselState(nil), b.archived...)
}

// timedObjects wraps an object store (the archive's Remote, or the tier's
// spill store) and times Put and Get. A Get made while a foreground
// span is open — a query paging history back, a restart reading sealed
// segments — is recorded as that span's child.
type timedObjects struct {
	inner store.ObjectStore
	tr    *tracer
	times *objectTimes
}

// objectTimes collects Put and Get latencies, in µs, across shims.
type objectTimes struct{ putUS, getUS sampler }

func (o *timedObjects) Put(key string, data []byte) error {
	sp := o.tr.begin("objects.put", nil)
	t0 := time.Now()
	err := o.inner.Put(key, data)
	o.times.putUS.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	sp.end()
	return err
}

func (o *timedObjects) Get(key string) ([]byte, error) {
	sp := o.tr.begin("objects.get", o.tr.foreground())
	t0 := time.Now()
	data, err := o.inner.Get(key)
	o.times.getUS.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	sp.end()
	return data, err
}

func (o *timedObjects) List(prefix string) ([]string, error) { return o.inner.List(prefix) }

func (o *timedObjects) Delete(key string) error { return o.inner.Delete(key) }
