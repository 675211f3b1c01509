package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
)

// Validation bounds. A campaign spec is hostile input: the daemon is
// long-lived and one oversized grid must not wedge the queue for every
// other client, so the decoder rejects anything outside these limits
// with a 4xx before a single point is scheduled.
const (
	// maxSpecBytes bounds the request body (an inline topology spec is a
	// few KB; the rest of the spec is tiny).
	maxSpecBytes = 1 << 20
	// maxExperiments bounds the experiment list; "all" expands to the
	// registry, which is far below this.
	maxExperiments = 256
	// maxExperimentID bounds one experiment name.
	maxExperimentID = 128
	// defaultMaxRuns bounds the per-configuration repetition count
	// (Config.MaxRuns overrides); the paper's campaigns use 3.
	defaultMaxRuns = 64
)

// CampaignSpec is the wire format of one campaign submission: the same
// knobs `cmd/interference` exposes as flags, as one JSON object.
type CampaignSpec struct {
	// Cluster names a preset (henri, bora, billy, pyxis); ignored when
	// Spec carries an inline machine description.
	Cluster string `json:"cluster,omitempty"`
	// Spec, when non-nil, is a full inline machine spec (see `topo
	// -json`); it is validated with the same bounds as a -spec file.
	Spec *topology.NodeSpec `json:"spec,omitempty"`
	// Experiments lists experiment IDs in output order; "all" and
	// "faults" expand as in the CLI.
	Experiments []string `json:"experiments"`
	Seed        int64    `json:"seed"`
	Runs        int      `json:"runs"`
	// Format is "ascii" (default) or "csv".
	Format string `json:"format,omitempty"`
	// Faults is a fault-schedule spec (see fault.ParseSpec).
	Faults string `json:"faults,omitempty"`
}

// campaign is a validated, normalized submission ready to execute.
type campaign struct {
	spec    CampaignSpec // normalized: defaults applied, experiments resolved
	id      string       // sha256 of the normalized spec: identical submissions collide
	cluster string       // cluster label (preset name or inline spec name)
	exps    []core.Experiment
	env     bench.Env

	// Admission metadata (not part of the campaign identity): the
	// fair-queueing client key, the client's X-Deadline, and whether
	// this is an internal submission (startup recovery) that must not
	// be shed by the overload controller.
	client   string
	deadline time.Duration
	internal bool
}

// parseSpec decodes and validates one submission. Every error is a
// client error (the daemon maps them to 400); the decoder is strict —
// unknown fields, trailing garbage, or out-of-bounds values are
// rejected, never silently ignored.
func parseSpec(r io.Reader, maxRuns int) (*campaign, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes+1))
	dec.DisallowUnknownFields()
	var spec CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decoding campaign spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign spec has trailing data after the JSON object")
	}
	return compile(spec, maxRuns)
}

// compile validates a decoded spec and resolves it against the
// experiment registry.
func compile(spec CampaignSpec, maxRuns int) (*campaign, error) {
	if maxRuns <= 0 {
		maxRuns = defaultMaxRuns
	}
	c := &campaign{spec: spec}

	if c.spec.Runs == 0 {
		c.spec.Runs = 3
	}
	if c.spec.Runs < 1 || c.spec.Runs > maxRuns {
		return nil, fmt.Errorf("runs %d out of range [1,%d]", c.spec.Runs, maxRuns)
	}
	if c.spec.Format == "" {
		c.spec.Format = "ascii"
	}
	if c.spec.Format != "ascii" && c.spec.Format != "csv" {
		return nil, fmt.Errorf("unknown format %q (want ascii or csv)", c.spec.Format)
	}

	if c.spec.Spec != nil {
		if err := c.spec.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("inline machine spec: %w", err)
		}
		c.cluster = c.spec.Spec.Name
		c.spec.Cluster = ""
		c.env = bench.Env{Spec: c.spec.Spec, Seed: c.spec.Seed, Runs: c.spec.Runs}
	} else {
		if c.spec.Cluster == "" {
			c.spec.Cluster = "henri"
		}
		env, err := core.Env(c.spec.Cluster, c.spec.Seed, c.spec.Runs)
		if err != nil {
			return nil, err
		}
		c.cluster = c.spec.Cluster
		c.env = env
	}

	if c.spec.Faults != "" {
		sched, err := fault.ParseSpec(c.spec.Faults)
		if err != nil {
			return nil, err
		}
		c.env.Faults = sched
	}

	if len(c.spec.Experiments) == 0 {
		return nil, fmt.Errorf("campaign spec lists no experiments")
	}
	if len(c.spec.Experiments) > maxExperiments {
		return nil, fmt.Errorf("campaign spec lists %d experiments (limit %d)", len(c.spec.Experiments), maxExperiments)
	}
	var resolved []string
	for _, id := range c.spec.Experiments {
		if len(id) > maxExperimentID {
			return nil, fmt.Errorf("experiment ID longer than %d bytes", maxExperimentID)
		}
		switch id {
		case "all":
			for _, e := range core.Experiments() {
				c.exps = append(c.exps, e)
				resolved = append(resolved, e.ID)
			}
		case "faults":
			for _, fid := range core.FaultFamily() {
				e, _ := core.ByID(fid)
				c.exps = append(c.exps, e)
				resolved = append(resolved, e.ID)
			}
		default:
			e, ok := core.ByID(id)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			c.exps = append(c.exps, e)
			resolved = append(resolved, e.ID)
		}
		if len(c.exps) > maxExperiments {
			return nil, fmt.Errorf("campaign expands to %d experiments (limit %d)", len(c.exps), maxExperiments)
		}
	}
	c.spec.Experiments = resolved

	// The campaign ID is content-addressed over the normalized spec, so
	// byte-different but semantically identical submissions (defaults
	// spelled out, "all" expanded) share one identity — and therefore
	// one execution when they race (see Server.submit).
	canon, err := json.Marshal(c.spec)
	if err != nil {
		return nil, fmt.Errorf("canonicalizing campaign spec: %w", err)
	}
	sum := sha256.Sum256(canon)
	c.id = hex.EncodeToString(sum[:])
	return c, nil
}
