package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
)

// The campaign journal makes the daemon's campaigns crash-safe: every
// completed experiment's result is appended to a JSON-lines file the
// moment it finishes, keyed by experiment ID and a hash of the full
// configuration (spec, seed, runs, format, fault schedule). A campaign
// that is killed after experiment k and resubmitted replays the results
// already in the journal byte-identically and executes only the missing
// experiments. Failed experiments are never journaled, so a rerun
// retries them. (The CLI needs no journal: re-running a killed campaign
// against the same point cache replays every flushed point.)

// journalSchema versions the entry format; entries with a different
// schema are ignored on load (a stale journal degrades to a fresh
// campaign, never to corrupt output).
const journalSchema = 1

// JournalEntry is one completed experiment as recorded on disk.
type JournalEntry struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	// Cluster names the spec the experiment ran on; Hash fingerprints
	// the full configuration (see ConfigHash) so a journal recorded
	// under different settings is never replayed.
	Cluster string `json:"cluster"`
	Hash    string `json:"hash"`
	// Rendered is the experiment's formatted output, replayed verbatim
	// on resume.
	Rendered string `json:"rendered"`
	// The per-experiment accounting, preserved so the resumed
	// campaign's summary still covers the cached rows.
	SimSeconds float64           `json:"sim_seconds"`
	Worlds     int               `json:"worlds"`
	Tables     int               `json:"tables"`
	Rows       int               `json:"rows"`
	Attempts   int               `json:"attempts"`
	WallMs     float64           `json:"wall_ms"`
	Faults     bench.FaultTotals `json:"faults"`
}

// Journal is an append-only record of completed experiments, safe for
// concurrent use: a service runs many campaigns against one journal, so
// lookups and appends from different campaigns may interleave freely
// (each append is a single written line).
type Journal struct {
	mu     sync.Mutex
	f      chaos.File
	closed bool
	// dirty means the file may end mid-line (a failed or torn append,
	// or a file recovered without a trailing newline): the next append
	// leads with a newline so the damaged record stays isolated on its
	// own line instead of corrupting the new one.
	dirty   bool
	skipped int
	entries map[string]JournalEntry // keyed by ID + "\x00" + Hash
}

// OpenJournalFS opens (creating if needed) the journal at path through
// fsys and loads its entries. Recovery is tolerant by design — a
// journal exists to save work, so one damaged record must never cost
// the rest: a corrupt line anywhere (torn tail from a mid-append kill,
// a record mangled by a torn write, stray garbage) is skipped, counted
// (see Skipped) and reported through logf, and every intact record
// before and after it still loads. An unterminated final line is
// truncated away so later appends start clean. logf may be nil to
// discard the reports.
func OpenJournalFS(path string, fsys chaos.FS, logf func(format string, args ...any)) (*Journal, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("runner: reading journal: %w", err)
	}
	j := &Journal{entries: make(map[string]JournalEntry)}
	offset := 0
	truncateAt := -1 // offset of an unterminated, unparsable tail
	for line := 1; offset < len(data); line++ {
		end := bytes.IndexByte(data[offset:], '\n')
		text := data[offset:]
		next := len(data)
		terminated := end >= 0
		if terminated {
			text = data[offset : offset+end]
			next = offset + end + 1
		}
		if len(bytes.TrimSpace(text)) == 0 {
			offset = next
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(text, &e); err != nil {
			if !terminated {
				truncateAt = offset
			} else {
				j.skipped++
				logf("journal %s: skipping corrupt record at line %d (%d bytes)", path, line, len(text))
			}
			offset = next
			continue
		}
		if e.Schema == journalSchema {
			j.entries[e.ID+"\x00"+e.Hash] = e
		}
		offset = next
	}
	if truncateAt >= 0 {
		j.skipped++
		logf("journal %s: dropping torn tail record at byte %d", path, truncateAt)
		if err := fsys.Truncate(path, int64(truncateAt)); err != nil {
			// Can't repair in place; isolate the tail on its own line at
			// the next append instead.
			logf("journal %s: could not truncate torn tail: %v", path, err)
			j.dirty = true
		}
	} else if len(data) > 0 && data[len(data)-1] != '\n' {
		// Final line parsed but was never terminated: lead the next
		// append with a newline rather than gluing onto it.
		j.dirty = true
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: opening journal: %w", err)
	}
	j.f = f
	return j, nil
}

// Lookup returns the journaled entry for an experiment under the given
// configuration hash, if one exists.
func (j *Journal) Lookup(id, hash string) (JournalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[id+"\x00"+hash]
	return e, ok
}

// Len reports how many entries the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Skipped reports how many corrupt records were skipped during
// recovery.
func (j *Journal) Skipped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skipped
}

// Append records a completed experiment. The write is a single
// appended line, so concurrent campaigns against one journal and kills
// between experiments never corrupt earlier entries; after a failed or
// torn write the next append leads with a newline to keep the damage
// on its own (recoverable-by-skipping) line. Appending to a closed
// journal fails. An append failure costs only durability — the result
// is still correct, the campaign is just no longer crash-safe — and is
// reported as Result.DurabilityErr by RunResumable.
func (j *Journal) Append(e JournalEntry) error {
	e.Schema = journalSchema
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runner: encoding journal entry: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("runner: journal is closed")
	}
	if j.dirty {
		b = append([]byte{'\n'}, b...)
	}
	n, err := j.f.Write(b)
	if err != nil || n < len(b) {
		// The line may be half on disk; isolate it before the next one.
		j.dirty = true
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(b))
		}
		return fmt.Errorf("runner: appending to journal: %w", err)
	}
	j.dirty = false
	j.entries[e.ID+"\x00"+e.Hash] = e
	return nil
}

// Sync flushes the journal file to stable storage (best-effort
// durability checkpoint, e.g. before a drain completes).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.f.Sync()
}

// Close syncs (best-effort) and releases the journal file; later
// appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.f.Sync()
	return j.f.Close()
}

// ConfigHash fingerprints everything that determines an experiment's
// output: the cluster spec, seed, run count, output format and fault
// schedule. Two campaigns share journal entries exactly when their
// outputs would be byte-identical.
func ConfigHash(env bench.Env, format string) string {
	spec, err := json.Marshal(env.Spec)
	if err != nil {
		spec = []byte(err.Error())
	}
	faults := ""
	if env.Faults != nil {
		faults = env.Faults.String()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|seed=%d|runs=%d|format=%s|faults=%s", spec, env.Seed, env.Runs, format, faults)
	return hex.EncodeToString(h.Sum(nil))
}

// entryFor converts a successful Result into its journal record.
func entryFor(res Result, cluster, hash string) JournalEntry {
	m := res.Metrics
	return JournalEntry{
		Schema:     journalSchema,
		ID:         res.Exp.ID,
		Cluster:    cluster,
		Hash:       hash,
		Rendered:   res.Rendered,
		SimSeconds: m.SimSeconds,
		Worlds:     m.Worlds,
		Tables:     m.Tables,
		Rows:       m.Rows,
		Attempts:   m.Attempts,
		WallMs:     float64(m.Wall.Milliseconds()),
		Faults:     m.Faults,
	}
}

// resultFor converts a journaled entry back into a (cached) Result.
func resultFor(e JournalEntry, exp core.Experiment, index int) Result {
	return Result{
		Exp:      exp,
		Index:    index,
		Rendered: e.Rendered,
		Cached:   true,
		Metrics: Metrics{
			ID:         e.ID,
			SimSeconds: e.SimSeconds,
			Worlds:     e.Worlds,
			Tables:     e.Tables,
			Rows:       e.Rows,
			Attempts:   e.Attempts,
			Faults:     e.Faults,
		},
	}
}

// RunResumable is Run with a crash-safe journal: experiments already
// journaled under the same configuration are replayed from the journal
// instead of executing, and freshly completed ones are appended to j as
// they finish. Results still arrive in the order of exps — cached and
// fresh interleaved — so the campaign output stays byte-identical to an
// uninterrupted run. Failed experiments are never journaled. A journal
// append failure does NOT fail the experiment — its result is correct
// and is still delivered — but the loss of crash-safety is reported
// through the result's DurabilityErr so callers can warn.
func RunResumable(env bench.Env, exps []core.Experiment, opts Options, j *Journal, cluster string) <-chan Result {
	format := opts.Format
	if format == "" {
		format = "ascii"
	}
	hash := ConfigHash(env, format)

	cached := make(map[int]JournalEntry)
	var pending []core.Experiment
	pendingIndex := make(map[string]int) // experiment ID -> index in exps
	for i, e := range exps {
		if entry, ok := j.Lookup(e.ID, hash); ok {
			cached[i] = entry
			continue
		}
		pending = append(pending, e)
		pendingIndex[e.ID] = i
	}

	fresh := Run(env, pending, opts)
	out := make(chan Result)
	go func() {
		defer close(out)
		for i, e := range exps {
			if entry, ok := cached[i]; ok {
				out <- resultFor(entry, e, i)
				continue
			}
			res, ok := <-fresh
			if !ok {
				return
			}
			res.Index = pendingIndex[res.Exp.ID]
			if res.Err == nil {
				if err := j.Append(entryFor(res, cluster, hash)); err != nil {
					res.DurabilityErr = err
				}
			}
			out <- res
		}
	}()
	return out
}
