// Package fault implements deterministic fault injection for the
// simulated cluster: a schedule of events — link bandwidth degradation,
// packet loss/corruption, NIC stalls, communication-thread hangs and
// straggler cores — driven entirely by the simulated clock and a seeded
// RNG, so a campaign under faults is as reproducible as a healthy one
// (same seed + same schedule ⇒ byte-identical results at any worker
// count; see DESIGN.md §7).
//
// The package only provides the schedule and the injector; the layers
// above consume it: internal/net scales wire capacities and gates
// transfers on NIC stalls, internal/mpi draws per-transmission loss and
// corruption outcomes and retries with exponential backoff, and
// internal/machine applies straggler slowdown factors to cores.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind enumerates the injectable fault event types.
type Kind int

const (
	// LinkDegrade scales the capacity of one (or every) directed wire by
	// Factor while the event is active.
	LinkDegrade Kind = iota
	// PacketLoss drops each wire transmission with probability Prob
	// while active; the sender detects the loss by retransmission
	// timeout and retries with exponential backoff.
	PacketLoss
	// PacketCorrupt corrupts each wire transmission with probability
	// Prob while active; the payload still crosses the wire (wasting
	// bandwidth) before the checksum failure forces a retransmission.
	PacketCorrupt
	// NICStall freezes a node's NIC: transfers and PIO operations that
	// start during the window wait until it closes.
	NICStall
	// CommHang blocks a node's communication thread: send/recv calls
	// entered during the window stall until it closes.
	CommHang
	// Straggler multiplies the execution time of a node's cores by
	// Factor while active (per-core slowdown, e.g. thermal throttling).
	Straggler
	// NodeCrash fail-stops a node at At: its cores stop executing (the
	// next execution primitive a process enters blocks), its NIC drops
	// every in-flight transfer (the flows freeze and crash-aware waiters
	// cancel them), and MPI operations against it that watch the
	// failure detector (StartSend/StartRecv; Send/Recv run the same
	// protocol without one) return ErrPeerDead once the detector
	// declares it. A For > 0 schedules an automatic recovery when the
	// window closes.
	NodeCrash
	// NodeRecover brings a previously crashed node back up at At (its
	// gated processes resume; lost in-flight transfers stay lost).
	NodeRecover
)

var kindNames = map[Kind]string{
	LinkDegrade:   "degrade",
	PacketLoss:    "loss",
	PacketCorrupt: "corrupt",
	NICStall:      "stall",
	CommHang:      "hang",
	Straggler:     "straggler",
	NodeCrash:     "crash",
	NodeRecover:   "recover",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// At is the activation instant, as an offset from simulation start.
	At sim.Duration
	// For is how long the event stays active; 0 means the rest of the
	// run (not allowed for NICStall/CommHang, which would deadlock the
	// gated operations).
	For sim.Duration
	// Node is the affected node; -1 targets every node. Ignored by
	// LinkDegrade, which addresses wires.
	Node int
	// From/To select the directed wire a LinkDegrade applies to;
	// -1/-1 targets every wire.
	From, To int
	// Factor is the capacity multiplier of a LinkDegrade (in (0,1]) or
	// the slowdown multiplier of a Straggler (≥ 1).
	Factor float64
	// Prob is the per-transmission probability of PacketLoss/Corrupt,
	// in [0,1].
	Prob float64
	// Cores restricts a Straggler to specific cores; empty means every
	// core of the node.
	Cores []int
}

// window reports whether the event is active at instant t.
func (e Event) window(t sim.Time) bool {
	start := sim.Time(0).Add(e.At)
	if t < start {
		return false
	}
	return e.For == 0 || t < start.Add(e.For)
}

// end returns the deactivation instant (valid only when For > 0).
func (e Event) end() sim.Time { return sim.Time(0).Add(e.At + e.For) }

// validate checks one event's fields.
func (e Event) validate() error {
	if e.At < 0 || e.For < 0 {
		return fmt.Errorf("fault: %s event with negative at/for", e.Kind)
	}
	switch e.Kind {
	case LinkDegrade:
		if e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("fault: degrade factor %g outside (0,1]", e.Factor)
		}
		if (e.From < 0) != (e.To < 0) {
			return errors.New("fault: degrade link needs both ends (or neither, for all wires)")
		}
	case PacketLoss, PacketCorrupt:
		if e.Prob < 0 || e.Prob > 1 {
			return fmt.Errorf("fault: %s probability %g outside [0,1]", e.Kind, e.Prob)
		}
	case NICStall, CommHang:
		if e.For <= 0 {
			return fmt.Errorf("fault: %s event needs for>0 (a permanent %s would deadlock)", e.Kind, e.Kind)
		}
	case Straggler:
		if e.Factor < 1 {
			return fmt.Errorf("fault: straggler factor %g below 1", e.Factor)
		}
	case NodeCrash, NodeRecover:
		if e.Node < 0 {
			return fmt.Errorf("fault: %s event needs an explicit node", e.Kind)
		}
		if e.Kind == NodeRecover && e.For != 0 {
			return errors.New("fault: recover is instantaneous (for= not allowed)")
		}
	default:
		return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Schedule is an immutable set of fault events plus the retry policy the
// MPI layer applies under it. A nil *Schedule means "no faults".
type Schedule struct {
	Events []Event
	// Policy tunes the retransmission behaviour; the zero value selects
	// DefaultPolicy at injection time.
	Policy RetryPolicy
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

// Lossy reports whether the schedule contains any loss or corruption
// events. The MPI layer only takes its retransmission path in lossy
// schedules, so fault-free worlds follow exactly the healthy code path.
func (s *Schedule) Lossy() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == PacketLoss || e.Kind == PacketCorrupt {
			return true
		}
	}
	return false
}

// Crashy reports whether the schedule contains node-crash events. Like
// Lossy it is a static, per-world property: only crashy worlds arm the
// heartbeat failure detector and take the crash-aware transfer paths,
// so crash-free worlds keep their exact event sequence.
func (s *Schedule) Crashy() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == NodeCrash {
			return true
		}
	}
	return false
}

// String renders the schedule in the ParseSpec syntax.
func (s *Schedule) String() string {
	var parts []string
	for _, e := range s.Events {
		var kv []string
		switch e.Kind {
		case LinkDegrade:
			kv = append(kv, fmt.Sprintf("factor=%g", e.Factor))
			if e.From >= 0 {
				kv = append(kv, fmt.Sprintf("link=%d-%d", e.From, e.To))
			}
		case PacketLoss, PacketCorrupt:
			kv = append(kv, fmt.Sprintf("p=%g", e.Prob))
		case Straggler:
			kv = append(kv, fmt.Sprintf("factor=%g", e.Factor))
		}
		if e.Node >= 0 && e.Kind != LinkDegrade {
			kv = append(kv, fmt.Sprintf("node=%d", e.Node))
		}
		if len(e.Cores) > 0 {
			cs := make([]string, len(e.Cores))
			for i, c := range e.Cores {
				cs[i] = fmt.Sprint(c)
			}
			kv = append(kv, "cores="+strings.Join(cs, "+"))
		}
		if e.At > 0 {
			kv = append(kv, fmt.Sprintf("at=%s", e.At))
		}
		if e.For > 0 {
			kv = append(kv, fmt.Sprintf("for=%s", e.For))
		}
		parts = append(parts, e.Kind.String()+":"+strings.Join(kv, ","))
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses a compact fault-schedule spec: semicolon-separated
// events of the form kind:key=value,key=value. Examples:
//
//	loss:p=0.1                        drop 10% of transmissions, whole run
//	corrupt:p=0.05,at=1ms,for=5ms     corruption window
//	degrade:factor=0.5                every wire at half capacity
//	degrade:factor=0.25,link=0-1      one directed wire
//	stall:node=0,at=100us,for=300us   NIC frozen for 300µs
//	hang:node=1,at=50us,for=200us     comm thread blocked
//	straggler:factor=2,node=1,cores=0+1+2   cores 0-2 run 2× slower
//	crash:node=1,at=1ms                crash node 1 permanently at t=1ms
//	crash:node=0,at=1ms,for=2ms        crash with automatic recovery
//	recover:node=1,at=5ms              explicit recovery of a crashed node
//
// Durations use Go syntax restricted to ns/us/ms/s suffixes.
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
			return nil, fmt.Errorf("fault: unknown event kind %q (have loss, corrupt, degrade, stall, hang, straggler, crash, recover)", kindStr)
		}
		e := Event{Kind: kind, Node: -1, From: -1, To: -1}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("fault: %s: malformed option %q (want key=value)", kindStr, kv)
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
		return nil, errors.New("fault: empty schedule spec")
	}
	return s, nil
}

// setOption applies one key=value option to the event.
func (e *Event) setOption(key, val string) error {
	switch key {
	case "p":
		return parseFloat(val, &e.Prob)
	case "factor":
		return parseFloat(val, &e.Factor)
	case "node":
		return parseInt(val, &e.Node)
	case "link":
		from, to, ok := strings.Cut(val, "-")
		if !ok {
			return fmt.Errorf("fault: link %q not of the form from-to", val)
		}
		if err := parseInt(from, &e.From); err != nil {
			return err
		}
		return parseInt(to, &e.To)
	case "cores":
		for _, c := range strings.Split(val, "+") {
			var core int
			if err := parseInt(c, &core); err != nil {
				return err
			}
			e.Cores = append(e.Cores, core)
		}
		return nil
	case "at":
		return parseDuration(val, &e.At)
	case "for":
		return parseDuration(val, &e.For)
	}
	return fmt.Errorf("fault: unknown option %q for %s", key, e.Kind)
}

func parseFloat(s string, out *float64) error {
	if _, err := fmt.Sscanf(s, "%g", out); err != nil {
		return fmt.Errorf("fault: bad number %q", s)
	}
	return nil
}

func parseInt(s string, out *int) error {
	if _, err := fmt.Sscanf(s, "%d", out); err != nil {
		return fmt.Errorf("fault: bad integer %q", s)
	}
	return nil
}

// parseDuration accepts ns/us/ms/s suffixed decimal durations.
func parseDuration(s string, out *sim.Duration) error {
	units := []struct {
		suffix string
		unit   sim.Duration
	}{
		// Longest suffixes first, so "1ms" doesn't match "s".
		{"ns", sim.Nanosecond}, {"us", sim.Microsecond}, {"ms", sim.Millisecond}, {"s", sim.Second},
	}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			var f float64
			if err := parseFloat(v, &f); err != nil {
				return err
			}
			if f < 0 {
				return fmt.Errorf("fault: bad duration %q (negative)", s)
			}
			*out = sim.DurationOfSeconds(f * u.unit.Seconds())
			return nil
		}
	}
	return fmt.Errorf("fault: bad duration %q (want ns/us/ms/s suffix)", s)
}

// sortedCores returns the straggler's target cores, deduplicated and in
// ascending order, defaulting to all n cores when unset.
func (e Event) sortedCores(n int) []int {
	if len(e.Cores) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := append([]int(nil), e.Cores...)
	sort.Ints(out)
	j := 0
	for i, c := range out {
		if i == 0 || c != out[i-1] {
			out[j] = c
			j++
		}
	}
	return out[:j]
}
