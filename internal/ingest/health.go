package ingest

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the engine's readiness aggregation, the surface /readyz
// serves. Liveness needs nothing from the engine — a process that
// answers is alive; readiness is the judgement call, so it reads the
// same per-layer signals the flight recorder narrates.

// HealthOptions tunes the readiness thresholds. The zero value is
// usable: every bound defaults at Health.
type HealthOptions struct {
	// FlushBacklogMax is the flush-queue depth at which the engine stops
	// being ready (default: the flush stage's configured queue bound —
	// the depth at which appends actually block).
	FlushBacklogMax int
	// UploadQueueMaxAge bounds how old the oldest queued WAL upload may
	// grow before readiness flips (default 30s). Age, not depth: a deep
	// queue that drains young is a burst; an old head is a blocked
	// remote.
	UploadQueueMaxAge time.Duration
}

// Health builds the engine's readiness surface — the checks GET /readyz
// evaluates on every scrape:
//
//   - flush-backlog (critical): the persistence queue is below the
//     depth at which appends block.
//   - upload-queue (critical): the oldest queued WAL migration is
//     younger than the bound, so a blocked object store flips readiness
//     — and recovery flips it back, unlike the latched UploadErr.
//   - storage-errors (informational): no flush/WAL/tier error has
//     latched (FlushErr). Informational because these degrade rather
//     than stop the daemon, and a latched error would pin not-ready
//     forever.
//   - peer:<name> (informational): the federation peer answered its
//     last query. A degraded peer narrows answers; it does not make
//     this daemon unservable.
//   - hub-drops (informational): no subscriber lost updates since the
//     previous evaluation.
//
// Call after Start (the checks read stages Start wires). The returned
// surface is live: each evaluation re-reads the engine.
func (e *Engine) Health(opt HealthOptions) *obs.Health {
	if opt.UploadQueueMaxAge <= 0 {
		opt.UploadQueueMaxAge = 30 * time.Second
	}
	h := obs.NewHealth()
	if e.flusher != nil {
		f := e.flusher
		maxDepth := opt.FlushBacklogMax
		if maxDepth <= 0 {
			maxDepth = f.QueueBound()
		}
		h.Register(obs.HealthCheck{Name: "flush-backlog", Critical: true,
			Check: func() (bool, string) {
				depth := f.Depth()
				return depth < maxDepth, fmt.Sprintf("depth=%d bound=%d", depth, maxDepth)
			}})
	}
	if d, ok := e.cfg.Backend.(*store.Disk); ok {
		maxAge := opt.UploadQueueMaxAge
		h.Register(obs.HealthCheck{Name: "upload-queue", Critical: true,
			Check: func() (bool, string) {
				depth, oldest := d.UploadQueue()
				if depth == 0 {
					return true, "empty"
				}
				return oldest <= maxAge,
					fmt.Sprintf("depth=%d oldest=%s", depth, oldest.Round(time.Millisecond))
			}})
	}
	h.Register(obs.HealthCheck{Name: "storage-errors",
		Check: func() (bool, string) {
			if err := e.FlushErr(); err != nil {
				return false, err.Error()
			}
			return true, ""
		}})
	for _, src := range e.cfg.Peers {
		p, ok := src.(interface {
			Name() string
			PeerErr() error
		})
		if !ok {
			continue
		}
		h.Register(obs.HealthCheck{Name: "peer:" + p.Name(),
			Check: func() (bool, string) {
				if err := p.PeerErr(); err != nil {
					return false, err.Error()
				}
				return true, ""
			}})
	}
	lastDropped := new(atomic.Int64)
	h.Register(obs.HealthCheck{Name: "hub-drops",
		Check: func() (bool, string) {
			cur := e.hub.Metrics.Dropped.Load()
			prev := lastDropped.Swap(cur)
			if cur > prev {
				return false, fmt.Sprintf("%d updates dropped since last check", cur-prev)
			}
			return true, fmt.Sprintf("total=%d", cur)
		}})
	return h
}
