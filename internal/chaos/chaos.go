// Package chaos implements deterministic fault injection for the
// service's *real* I/O — the mirror image of internal/fault, which
// injects faults into the simulated cluster. A seeded Schedule DSL
// describes transport faults (connection refusals, 5xx bursts, latency
// spikes, truncated bodies) and filesystem faults (EIO, ENOSPC, torn
// writes, fsync failures); an Injector decides, purely as a function of
// (seed, operation label, per-label sequence number), which operations
// fail. The decision stream for any label is therefore reproducible
// from the seed alone, independent of goroutine interleaving across
// labels — exactly the discipline the simulation's fault layer already
// follows, applied to the daemon's disk and network edges.
//
// The package only provides the schedule, the injector and two
// instrumented shims (an http.RoundTripper and a filesystem); the
// layers above consume it: the point cache and the daemon's campaign
// log write through a chaos.FS, and the remote-cache client dials
// through a chaos.Transport. Production wiring uses the pass-through OS
// filesystem and a nil injector, which cost nothing.
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable real-I/O fault types.
type Kind int

const (
	// Refuse fails an HTTP round trip with a connection-refused error
	// before anything touches the network.
	Refuse Kind = iota
	// HTTPError answers an HTTP round trip with a synthetic error
	// status (default 503) without touching the network.
	HTTPError
	// Latency delays an HTTP round trip by Delay before performing it.
	Latency
	// Truncate performs the HTTP round trip but cuts the response body
	// short (transport corruption a digest check must catch).
	Truncate
	// ReadErr fails a filesystem read with EIO.
	ReadErr
	// WriteErr fails a filesystem write with EIO (nothing is written).
	WriteErr
	// NoSpace fails a filesystem write with ENOSPC (nothing is written).
	NoSpace
	// TornWrite persists only the first half of a filesystem write and
	// then fails — the on-disk signature of a crash mid-append.
	TornWrite
	// SyncErr fails an fsync.
	SyncErr
)

var kindNames = map[Kind]string{
	Refuse:    "refuse",
	HTTPError: "http",
	Latency:   "latency",
	Truncate:  "truncate",
	ReadErr:   "eio-read",
	WriteErr:  "eio-write",
	NoSpace:   "enospc",
	TornWrite: "torn",
	SyncErr:   "fsync",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op classifies one instrumented operation; events only apply to their
// own class (an ENOSPC cannot fail an HTTP GET).
type Op int

const (
	OpHTTP Op = iota
	OpRead
	OpWrite
	OpSync
)

func (k Kind) op() Op {
	switch k {
	case Refuse, HTTPError, Latency, Truncate:
		return OpHTTP
	case ReadErr:
		return OpRead
	case WriteErr, NoSpace, TornWrite:
		return OpWrite
	case SyncErr:
		return OpSync
	}
	return OpHTTP
}

// Event is one scheduled fault class.
type Event struct {
	Kind Kind
	// P is the per-operation fault probability in [0,1]; parsed
	// schedules default it to 1 (every matching operation in the
	// window faults).
	P float64
	// From/To restrict the event to a window of per-label operation
	// sequence numbers (1-based, inclusive). 0/0 means every
	// operation; From=0 means "from the first"; To=0 means "forever".
	From, To int64
	// Match restricts the event to operation labels containing this
	// substring ("" matches every label). Transport labels look like
	// "GET host/path"; filesystem labels like "write:campaigns.jsonl".
	Match string
	// Status is the synthetic response code of an HTTPError event.
	Status int
	// Delay is the injected latency of a Latency event.
	Delay time.Duration
}

// validate checks one event's fields.
func (e Event) validate() error {
	if e.P < 0 || e.P > 1 {
		return fmt.Errorf("chaos: %s probability %g outside [0,1]", e.Kind, e.P)
	}
	if e.From < 0 || e.To < 0 {
		return fmt.Errorf("chaos: %s event with negative ops window", e.Kind)
	}
	if e.From > 0 && e.To > 0 && e.To < e.From {
		return fmt.Errorf("chaos: %s ops window %d-%d is empty", e.Kind, e.From, e.To)
	}
	switch e.Kind {
	case HTTPError:
		if e.Status < 400 || e.Status > 599 {
			return fmt.Errorf("chaos: http status %d outside [400,599]", e.Status)
		}
	case Latency:
		if e.Delay <= 0 {
			return fmt.Errorf("chaos: latency event needs delay>0")
		}
	case Refuse, Truncate, ReadErr, WriteErr, NoSpace, TornWrite, SyncErr:
	default:
		return fmt.Errorf("chaos: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// window reports whether the event covers per-label sequence number n.
func (e Event) window(n int64) bool {
	if e.From > 0 && n < e.From {
		return false
	}
	if e.To > 0 && n > e.To {
		return false
	}
	return true
}

// Schedule is an immutable set of chaos events, matched in order (the
// first applicable event decides an operation's fate). A nil *Schedule
// means "no chaos".
type Schedule struct {
	Events []Event
}

// Validate checks every event of the schedule.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// String renders the schedule in the ParseSpec syntax.
func (s *Schedule) String() string {
	var parts []string
	for _, e := range s.Events {
		var kv []string
		if e.P != 1 {
			kv = append(kv, fmt.Sprintf("p=%g", e.P))
		}
		if e.From > 0 || e.To > 0 {
			kv = append(kv, fmt.Sprintf("ops=%d-%d", e.From, e.To))
		}
		if e.Kind == HTTPError && e.Status != 503 {
			kv = append(kv, fmt.Sprintf("status=%d", e.Status))
		}
		if e.Kind == Latency {
			kv = append(kv, fmt.Sprintf("delay=%s", e.Delay))
		}
		if e.Match != "" {
			kv = append(kv, "match="+e.Match)
		}
		part := e.Kind.String()
		if len(kv) > 0 {
			part += ":" + strings.Join(kv, ",")
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses a compact chaos-schedule spec: semicolon-separated
// events of the form kind:key=value,key=value (the same shape as
// fault.ParseSpec, aimed at real I/O instead of the simulation).
// Examples:
//
//	refuse:p=0.3                        refuse 30% of round trips
//	http:status=503,ops=1-20            503 burst on the first 20 requests
//	latency:delay=50ms,p=0.5            half the round trips take 50ms extra
//	truncate:p=0.2,match=/cache/        truncate 20% of cache responses
//	eio-read:p=0.3,match=.pack          30% of cache pack page-ins fail
//	eio-write:ops=1-4,match=campaigns   first 4 campaign-log appends fail
//	enospc:p=0.2,match=.tmp-            disk-full on 20% of cache writes
//	torn:ops=3-3,match=campaigns        the 3rd campaign-log append tears
//	fsync:p=1                           every fsync fails
//
// p defaults to 1; ops windows are 1-based inclusive per operation
// label; match is a substring filter on the label.
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, args, _ := strings.Cut(part, ":")
		var kind Kind = -1
		for k, name := range kindNames {
			if name == kindStr {
				kind = k
			}
		}
		if kind < 0 {
			return nil, fmt.Errorf("chaos: unknown event kind %q (have refuse, http, latency, truncate, eio-read, eio-write, enospc, torn, fsync)", kindStr)
		}
		e := Event{Kind: kind, P: 1, Status: 503}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("chaos: %s: malformed option %q (want key=value)", kindStr, kv)
				}
				if err := e.setOption(key, val); err != nil {
					return nil, err
				}
			}
		}
		if err := e.validate(); err != nil {
			return nil, err
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) == 0 {
		return nil, errors.New("chaos: empty schedule spec")
	}
	return s, nil
}

// setOption applies one key=value option to the event.
func (e *Event) setOption(key, val string) error {
	switch key {
	case "p":
		if _, err := fmt.Sscanf(val, "%g", &e.P); err != nil {
			return fmt.Errorf("chaos: bad probability %q", val)
		}
		return nil
	case "ops":
		from, to, ok := strings.Cut(val, "-")
		if !ok {
			return fmt.Errorf("chaos: ops %q not of the form from-to", val)
		}
		if _, err := fmt.Sscanf(from, "%d", &e.From); err != nil {
			return fmt.Errorf("chaos: bad ops window %q", val)
		}
		if _, err := fmt.Sscanf(to, "%d", &e.To); err != nil {
			return fmt.Errorf("chaos: bad ops window %q", val)
		}
		return nil
	case "status":
		if _, err := fmt.Sscanf(val, "%d", &e.Status); err != nil {
			return fmt.Errorf("chaos: bad status %q", val)
		}
		return nil
	case "delay":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("chaos: bad delay %q: %v", val, err)
		}
		e.Delay = d
		return nil
	case "match":
		e.Match = val
		return nil
	}
	return fmt.Errorf("chaos: unknown option %q for %s", key, e.Kind)
}

// Injector decides which instrumented operations fail, deterministically
// from the seed. Each operation label (e.g. "write:campaigns.jsonl",
// "GET host/cache/ab12…") carries its own sequence counter, and a fault
// decision is a pure function of (seed, event index, label, sequence
// number) — so the outcome stream per label is independent of how
// operations on *different* labels interleave, and a failing run is
// reproducible from its seed.
//
// A nil *Injector injects nothing and is safe to use everywhere.
type Injector struct {
	seed  int64
	sched *Schedule

	mu  sync.Mutex
	seq map[string]int64

	ops      atomic.Int64
	injected atomic.Int64
	byKind   [SyncErr + 1]atomic.Int64
}

// NewInjector binds a schedule to a seed. A nil schedule yields an
// injector that never faults (but still counts operations).
func NewInjector(seed int64, sched *Schedule) *Injector {
	return &Injector{seed: seed, sched: sched, seq: make(map[string]int64)}
}

// Seed returns the injector's seed (printed by harnesses so a failing
// chaos run can be reproduced exactly).
func (in *Injector) Seed() int64 { return in.seed }

// Ops returns how many operations consulted the injector.
func (in *Injector) Ops() int64 {
	if in == nil {
		return 0
	}
	return in.ops.Load()
}

// Injected returns how many faults were injected in total.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// InjectedKind returns how many faults of one kind were injected.
func (in *Injector) InjectedKind(k Kind) int64 {
	if in == nil || k < 0 || int(k) >= len(in.byKind) {
		return 0
	}
	return in.byKind[k].Load()
}

// next returns the 1-based sequence number of this operation on its
// label.
func (in *Injector) next(label string) int64 {
	in.mu.Lock()
	in.seq[label]++
	n := in.seq[label]
	in.mu.Unlock()
	return n
}

// Decide consults the schedule for one operation: the first event whose
// class, label match, ops window and probability draw all apply wins.
// ok=false means the operation proceeds unharmed.
func (in *Injector) Decide(op Op, label string) (Event, bool) {
	if in == nil || in.sched == nil || len(in.sched.Events) == 0 {
		return Event{}, false
	}
	in.ops.Add(1)
	n := in.next(label)
	for i, e := range in.sched.Events {
		if e.Kind.op() != op {
			continue
		}
		if e.Match != "" && !strings.Contains(label, e.Match) {
			continue
		}
		if !e.window(n) {
			continue
		}
		if e.P < 1 && hash01(in.seed, i, label, n) >= e.P {
			continue
		}
		in.injected.Add(1)
		in.byKind[e.Kind].Add(1)
		return e, true
	}
	return Event{}, false
}

// hash01 maps (seed, event, label, n) to a uniform float64 in [0,1).
func hash01(seed int64, event int, label string, n int64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(seed))
	put(uint64(event))
	h.Write([]byte(label))
	put(uint64(n))
	// 53 mantissa bits of the 64-bit hash → exact float64 in [0,1).
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}
