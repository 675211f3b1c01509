package interference

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/taskrt"
	"repro/internal/tuning"
)

// TuneOptions describes the application whose worker count should be
// selected automatically (the paper's §8 future-work proposal, provided
// here as a working extension).
type TuneOptions struct {
	// Intensity is the tasks' arithmetic intensity in flop/B; low values
	// (≲1) are memory-bound and profit from fewer workers, high values
	// are CPU-bound and want the whole machine. Default 0.25 (CG-like).
	Intensity float64
	// TaskMB is the per-task data footprint in MiB; default 4.
	TaskMB int
	// TasksPerIteration and Iterations shape the program; defaults 64/3.
	TasksPerIteration, Iterations int
	// MessageKB and MessagesPerIteration shape the communication phase;
	// defaults 512 KB × 6.
	MessageKB, MessagesPerIteration int
	// WorkerCounts lists the candidates; empty sweeps 1,2,4,...,max.
	WorkerCounts []int
	// NUMALocalScheduler selects the locality scheduler instead of the
	// central FIFO list.
	NUMALocalScheduler bool
	// ThrottleDuringComm pauses up to this many workers while transfers
	// are in flight.
	ThrottleDuringComm int
}

// TunePoint is one measured worker count.
type TunePoint struct {
	Workers          int
	IterationMs      float64
	SendBandwidthMB  float64
	MemoryStallsFrac float64
}

// TuneResult is the sweep outcome; Best minimises the whole-program
// iteration time.
type TuneResult struct {
	Best   TunePoint
	Series []TunePoint
}

// Autotune sweeps worker counts for the described application on the
// configured cluster and returns the whole-program optimum (§8:
// "select automatically the optimal number of workers which reduces
// memory contention and maximizes performances").
func Autotune(cfg Config, opts TuneOptions) (TuneResult, error) {
	env, err := cfg.env()
	if err != nil {
		return TuneResult{}, err
	}
	if opts.Intensity < 0 {
		return TuneResult{}, fmt.Errorf("interference: negative intensity %v", opts.Intensity)
	}
	intensity := opts.Intensity
	if intensity == 0 {
		intensity = 0.25
	}
	taskMB := orDefault(opts.TaskMB, 4)
	tasks := orDefault(opts.TasksPerIteration, 64)
	iters := orDefault(opts.Iterations, 3)
	msgKB := orDefault(opts.MessageKB, 512)
	msgs := orDefault(opts.MessagesPerIteration, 6)

	bytes := float64(taskMB) * (1 << 20)
	spec := env.Spec
	scheduler := taskrt.EagerFIFO
	if opts.NUMALocalScheduler {
		scheduler = taskrt.NUMALocal
	}
	app := func() *taskrt.App {
		return &taskrt.App{
			Name: "autotune",
			Slice: func(i int) machine.ComputeSpec {
				s := kernels.StreamTriad(1, (i/2)%spec.NUMANodes())
				s.Name = "tune-task"
				s.Bytes = bytes
				s.Flops = bytes * intensity
				return s
			},
			TasksPerIter: tasks,
			Iterations:   iters,
			MsgSize:      int64(msgKB) << 10,
			MsgsPerIter:  msgs,
			HandleNUMA:   -1,
		}
	}
	res := tuning.WorkerSweep(tuning.Options{
		Spec:         spec,
		Seed:         env.Seed,
		World:        env.World,
		App:          app,
		WorkerCounts: opts.WorkerCounts,
		Scheduler:    scheduler,
		CommThrottle: opts.ThrottleDuringComm,
	})
	out := TuneResult{}
	for _, pt := range res.Series {
		tp := TunePoint{
			Workers:          pt.Workers,
			IterationMs:      pt.IterSeconds * 1e3,
			SendBandwidthMB:  pt.SendBandwidth / 1e6,
			MemoryStallsFrac: pt.StallFraction,
		}
		out.Series = append(out.Series, tp)
		if pt.Workers == res.Best.Workers {
			out.Best = tp
		}
	}
	return out, nil
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
