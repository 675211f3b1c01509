package bench

// The sweep layer turns an experiment's nested parameter loops into a
// flat, index-ordered slice of independently schedulable points. Each
// point owns a fresh isolated Env clone (its own spec copy and meter),
// so a campaign scheduler may execute points from *different*
// experiments side by side, in any completion order, and still merge
// results back by index — the rendered tables are byte-identical to a
// serial run at every worker count.
//
// Point results are canonicalised through the payload codec (codec.go):
// a freshly computed point is encoded and decoded through exactly the
// same path as a point replayed from a persistent cache, so "cold" and
// "warm" campaigns cannot diverge even by a bit. The encoded
// PointRecord also carries the point's simulation accounting
// (simulated seconds, world count, fault totals), which the owning
// experiment's meter absorbs in index order — campaign summaries stay
// deterministic whether a point was executed or replayed.
//
// Every registered experiment is a sweep of points: no world is built
// outside a point, so the content-addressed point cache is the only
// layer that replays results, and an experiment whose every record came
// from it reports itself as cached (see Meter.Replayed).

import (
	"fmt"
	"slices"

	"repro/internal/counters"
	"repro/internal/stats"
)

// PointSchema versions the encoded PointRecord format, payload codec
// included. Cached records with a different schema are ignored (a stale
// cache degrades to a recompute, never to corrupt output).
const PointSchema = 3

// SweepVersion versions the *measurement logic* of the sweep drivers:
// bump it whenever a driver changes what a point with an existing key
// computes (protocol steps, iteration counts, derived statistics), so
// content-addressed caches keyed before the change miss instead of
// serving measurements of the old logic.
const SweepVersion = 4

// Point is one independently schedulable cell of an experiment's
// parameter grid.
type Point struct {
	// Key identifies the cell completely and stably: the sweep's name
	// plus every parameter that influences Fn's result (e.g.
	// "contention/data=near/comm=far/kernel=triad-default/cores=7").
	// Two points with equal keys under the same environment must compute
	// identical results — the campaign cache is addressed by this key,
	// so an under-descriptive key silently serves stale data.
	Key string
	// Fn computes the cell against an isolated environment (fresh spec
	// clone, fresh meter, inline nested sweeps). The returned value must
	// survive a payload-codec round trip unchanged: exported fields only,
	// no NaN or ±Inf, and of the type the sweep decodes it as.
	Fn func(env Env) any
}

// PointRecord is the transportable outcome of one point: the encoded
// payload plus the simulation accounting its execution produced. It is
// the unit stored in the campaign's content-addressed cache.
type PointRecord struct {
	Schema int
	// Key echoes the full cache key the record was computed under, so a
	// poisoned or misfiled cache entry is detected by comparing the
	// stored key against the requested one (never served silently).
	Key string
	// Payload is the codec-encoded result. It is read-only: a decoded
	// record's Payload aliases the bytes it was decoded from (a pack
	// page-in, a write-behind buffer entry or an HTTP body), so writing
	// it would change every record sharing those bytes.
	Payload []byte
	// Accounting of the execution, replayed into the owning
	// experiment's meter on decode (cache hits included).
	SimSeconds float64
	Worlds     int
	Faults     counters.Faults
	// Panic carries a panic value raised while computing the point; it
	// is re-raised on the owning experiment's goroutine by RunPointsAs
	// (a point executed by a stranger's worker must fail the experiment
	// that owns it, not the one that happened to run it). Never stored
	// in the cache.
	Panic any
	// Cached marks a record loaded from the point cache instead of
	// executed; the campaign scheduler sets it on a cache hit. Never
	// stored in the cache.
	Cached bool
}

// PointRunner schedules compiled sweeps. The campaign runner installs
// one on Env.Sched to execute points from all experiments on a shared
// pool (with optional persistent caching); a nil Sched runs points
// inline, serially, with identical semantics.
type PointRunner interface {
	// RunPoints executes every point (in any order, possibly from
	// cache) and returns one record per point, index-aligned with pts.
	RunPoints(env Env, pts []Point) []PointRecord
}

// ExecutePoint runs one point against an isolated clone of env and
// encodes the outcome. It never panics: a panic inside the point's Fn
// (or a non-encodable result) is captured in the record's Panic field
// for the sweep's owner to re-raise.
func ExecutePoint(env Env, p Point) PointRecord {
	iso := env.Isolated()
	// Sweeps nested inside a point run inline: the point is already the
	// unit of scheduling, and re-entering the pool from inside a worker
	// would only add queueing overhead.
	iso.Sched = nil
	// Worlds built for this point are recycled through the arena once
	// the record below is sealed (see arena.go).
	keep := keepers.Get().(*worldKeeper)
	keep.family = Family(p.Key)
	iso.keeper = keep
	defer func() {
		releaseWorlds(keep)
		keepers.Put(keep)
	}()
	rec := PointRecord{Schema: PointSchema, Key: p.Key}
	var v any
	func() {
		defer func() {
			if pa := recover(); pa != nil {
				rec.Panic = pa
			}
		}()
		v = p.Fn(iso)
	}()
	if rec.Panic != nil {
		return rec
	}
	payload, err := encodePayload(v)
	if err != nil {
		rec.Panic = fmt.Sprintf("bench: point %q result is not encodable: %v", p.Key, err)
		return rec
	}
	rec.Payload = payload
	// What the point's nested sweeps absorbed comes first, then each
	// world in build order: the float sums, and so the cached record
	// bytes, depend on this order.
	rec.SimSeconds, rec.Worlds, rec.Faults = iso.Meter.SimSeconds(), iso.Meter.Worlds(), iso.Meter.Faults()
	for i := range keep.built {
		a := keep.built[i].account()
		rec.SimSeconds += a.simSeconds
		rec.Faults.Add(a.faults)
	}
	rec.Worlds += len(keep.built)
	return rec
}

// RunPointsAs executes a compiled sweep and decodes the results in
// index order. With a scheduler installed on the environment the points
// run on the campaign's shared pool (stealing-friendly, cache-backed);
// otherwise they run inline in index order. Either way the returned
// slice is index-aligned with pts and the environment's meter absorbs
// each point's accounting in index order, so every downstream number is
// independent of execution order.
func RunPointsAs[T any](env Env, pts []Point) []T {
	return decodePoints[T](pts, runPoints(env, pts))
}

// runPoints executes a compiled sweep as RunPointsAs does, re-raises the
// first panicked point in index order and absorbs every record into the
// environment's meter, leaving the payloads encoded.
func runPoints(env Env, pts []Point) []PointRecord {
	var recs []PointRecord
	if env.Sched != nil {
		recs = env.Sched.RunPoints(env, pts)
	} else {
		recs = make([]PointRecord, len(pts))
		for i, p := range pts {
			recs[i] = ExecutePoint(env, p)
		}
	}
	for _, rec := range recs {
		if rec.Panic != nil {
			panic(rec.Panic)
		}
		if env.Meter != nil {
			env.Meter.Absorb(rec)
		}
	}
	return recs
}

// decodePoints decodes each record's payload as T, index-aligned with
// the points that produced them.
func decodePoints[T any](pts []Point, recs []PointRecord) []T {
	out := make([]T, len(recs))
	for i, rec := range recs {
		if err := decodePayload(rec.Payload, &out[i]); err != nil {
			panic(fmt.Sprintf("bench: decoding point %q: %v", pts[i].Key, err))
		}
	}
	return out
}

// soloCommPoint compiles the comm-alone step of comm into a point of its
// own. The step depends on nothing but comm and the environment, so all
// cells that need this baseline (in any sweep, experiment or campaign)
// share the one point, and the campaign memo, point flight and point
// cache execute it once. Its key therefore spells out every CommConfig
// field.
func soloCommPoint(comm CommConfig) Point {
	return Point{
		Key: fmt.Sprintf("solo/comm/core=%d/buf=%d/size=%d/iters=%d/warmup=%d",
			comm.CommCore, comm.BufNUMA, comm.Size, comm.Iters, comm.Warmup),
		Fn: func(env Env) any { return commAlone(env, comm) },
	}
}

// runWithSolos runs a sweep's cells in one batch with the distinct
// comm-alone baselines in comms, and returns the decoded cells and the
// baselines by configuration; the caller fills each cell's CommAlone
// from them. Each baseline is requested, and so its accounting
// absorbed, once per call.
func runWithSolos[T any](env Env, cells []Point, comms []CommConfig) ([]T, map[CommConfig]stats.Summary) {
	pts := append(make([]Point, 0, len(cells)+len(comms)), cells...)
	var solos []CommConfig
	for _, cc := range comms {
		if !slices.Contains(solos, cc) {
			solos = append(solos, cc)
			pts = append(pts, soloCommPoint(cc))
		}
	}
	recs := runPoints(env, pts)
	alone := make(map[CommConfig]stats.Summary, len(solos))
	for i, s := range decodePoints[stats.Summary](pts[len(cells):], recs[len(cells):]) {
		alone[solos[i]] = s
	}
	return decodePoints[T](cells, recs[:len(cells)]), alone
}
