package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/topology"
)

// Remote mode: instead of executing the campaign in-process, the CLI
// POSTs a campaign spec to an interfd daemon and streams the daemon's
// results through the exact same rendering path as local execution —
// the stdout bytes are identical either way, so goldens, -verify and
// downstream tooling cannot tell where a campaign ran.

// submitRemote sends one campaign through a replica set — health-gated
// failover across every -remote URL, server Retry-After honored,
// retries budget-bounded — and converts the response into the
// runner.Result stream the output loop consumes. The returned stats
// mirror the daemon's per-campaign cache accounting; the raw response
// rides along so the caller can surface campaign-level degradation
// (no-cache mode, expired campaign timeout).
func submitRemote(set *replica.Set, spec *topology.NodeSpec, cluster string, todo []core.Experiment,
	seed int64, runs int, format, faults string,
	stats *runner.CacheStats) (<-chan runner.Result, *server.CampaignResponse, error) {

	req := server.CampaignSpec{
		Cluster: cluster,
		Seed:    seed,
		Runs:    runs,
		Format:  format,
		Faults:  faults,
	}
	if spec != nil {
		req.Spec = spec
		req.Cluster = ""
	}
	for _, e := range todo {
		req.Experiments = append(req.Experiments, e.ID)
	}
	cr, err := set.Submit(req, "")
	if err != nil {
		return nil, nil, err
	}
	if len(cr.Results) != len(todo) {
		return nil, nil, fmt.Errorf("daemon returned %d results for %d experiments", len(cr.Results), len(todo))
	}

	atomic.StoreInt64(&stats.Hits, cr.Cache.Hits)
	atomic.StoreInt64(&stats.Misses, cr.Cache.Misses)
	atomic.StoreInt64(&stats.MemoHits, cr.Cache.MemoHits)
	atomic.StoreInt64(&stats.FlightHits, cr.Cache.FlightHits)
	atomic.StoreInt64(&stats.Mismatches, cr.Cache.Mismatches)
	atomic.StoreInt64(&stats.Errors, cr.Cache.Errors)
	atomic.StoreInt64(&stats.Skipped, cr.Cache.Skipped)
	if cr.Degraded {
		atomic.StoreInt64(&stats.Degraded, 1)
	}

	out := make(chan runner.Result)
	go func() {
		defer close(out)
		for i, er := range cr.Results {
			res := runner.Result{
				Exp:      todo[i],
				Index:    i,
				Rendered: er.Rendered,
				Cached:   er.Cached,
				Metrics: runner.Metrics{
					ID:         er.ID,
					Wall:       time.Duration(er.WallMs * float64(time.Millisecond)),
					SimSeconds: er.SimSeconds,
					Worlds:     er.Worlds,
					Tables:     er.Tables,
					Rows:       er.Rows,
					Attempts:   er.Attempts,
					Faults:     er.Faults,
				},
			}
			if er.ID != todo[i].ID {
				res.Err = fmt.Errorf("daemon returned result %q at position %d, want %q", er.ID, i, todo[i].ID)
			} else if er.Error != "" {
				res.Err = errors.New(er.Error)
			}
			out <- res
		}
	}()
	return out, cr, nil
}
