package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The campaign state log records accepted work, not results: every
// accepted campaign spec is appended before it runs and a "done" marker
// after it completes, both as single JSONL lines. On startup, specs
// with no done marker are the campaigns the previous process was killed
// inside; New re-runs them so their remaining points land in the point
// cache and a re-submitted spec replays byte-identically. The log is
// append-only across restarts. Recovery is tolerant: a corrupt record
// anywhere — torn tail of a killed append, a line mangled by a torn
// write — is skipped, counted and logged; every intact record before
// and after it still loads (losing a whole boot's worth of state to one
// bad line would defeat the log's purpose).

const stateSchema = 1

type stateEntry struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	Status string `json:"status"` // "accepted" or "done"
	// Spec rides along on accepted entries so a restart can re-run the
	// campaign without the client.
	Spec *CampaignSpec `json:"spec,omitempty"`
}

// openStateLog loads the campaign log at path, returning the campaigns
// that were accepted but never completed, and opens the file for
// appending.
func (s *Server) openStateLog(path string) ([]*campaign, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("server: reading campaign log: %w", err)
	}
	open := map[string]*CampaignSpec{}
	var order []string
	offset := 0
	for line := 1; offset < len(data); line++ {
		end := bytes.IndexByte(data[offset:], '\n')
		text := data[offset:]
		next := len(data)
		terminated := end >= 0
		if terminated {
			text = data[offset : offset+end]
			next = offset + end + 1
		}
		offset = next
		text = bytes.TrimSpace(text)
		if len(text) == 0 {
			continue
		}
		var e stateEntry
		if err := json.Unmarshal(text, &e); err != nil {
			// A torn record (mid-append kill or torn write). Skip it and
			// keep loading — the campaign it described is simply re-run
			// (if "accepted" was lost) or re-recovered (if "done" was).
			s.stateSkipped.Add(1)
			if terminated {
				s.logf("campaign log %s: skipping corrupt record at line %d", path, line)
			} else {
				s.logf("campaign log %s: dropping torn tail record at line %d", path, line)
			}
			continue
		}
		if e.Schema != stateSchema {
			continue
		}
		switch e.Status {
		case "accepted":
			if e.Spec != nil {
				if _, dup := open[e.ID]; !dup {
					order = append(order, e.ID)
				}
				open[e.ID] = e.Spec
			}
		case "done":
			if _, ok := open[e.ID]; ok {
				delete(open, e.ID)
			}
		}
	}
	// A file not ending in '\n' may end mid-record: lead the next
	// append with a newline so the damage stays on its own line.
	s.stateDirty = len(data) > 0 && data[len(data)-1] != '\n'

	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: opening campaign log: %w", err)
	}
	s.stateLog = f

	var pending []*campaign
	for _, id := range order {
		spec, ok := open[id]
		if !ok {
			continue
		}
		c, err := compile(*spec, s.cfg.MaxRuns)
		if err != nil {
			// The registry changed since the spec was logged; nothing to
			// resume.
			continue
		}
		pending = append(pending, c)
	}
	return pending, nil
}

// logState appends one entry to the campaign log (single write, torn
// records tolerated on load). Best-effort: a failed append costs
// durability, not correctness, and is surfaced in the daemon log; the
// next append then leads with a newline so a half-written line cannot
// corrupt it.
func (s *Server) logState(e stateEntry) {
	e.Schema = stateSchema
	b, err := json.Marshal(e)
	if err != nil {
		s.logf("encoding campaign log entry: %v", err)
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stateLog == nil {
		return
	}
	if s.stateDirty {
		b = append([]byte{'\n'}, b...)
	}
	n, werr := s.stateLog.Write(b)
	if werr != nil || n < len(b) {
		s.stateDirty = true
		s.durabilityWarnings.Add(1)
		s.logf("appending to campaign log: %v (%d of %d bytes)", werr, n, len(b))
		return
	}
	s.stateDirty = false
}

// syncStateLog flushes the campaign log to stable storage
// (best-effort; part of a drain's final checkpoint).
func (s *Server) syncStateLog() {
	s.mu.Lock()
	f := s.stateLog
	s.mu.Unlock()
	if f == nil {
		return
	}
	if err := f.Sync(); err != nil {
		s.logf("syncing campaign log: %v", err)
	}
}
