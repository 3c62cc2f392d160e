package workload

import (
	"fmt"
	"math/rand"
	"time"

	"cellmg/internal/phylo"
	"cellmg/internal/sim"
)

// This file threads the real Go likelihood kernels into the workload model:
// instead of taking the paper's per-function durations on faith, it times
// phylo's newview(), evaluate() and makenewz() implementations on a
// 42_SC-shaped input and derives a workload.Config from the measurements, so
// the scheduler simulations can be re-run against the kernels this repository
// actually ships. Experiment E11 (internal/experiments/calibration.go) is the
// consumer.

// CalibrateOptions sizes the calibration input and the measurement effort.
// The zero value measures the paper's 42-taxon, 1167-site dimensions.
type CalibrateOptions struct {
	// Taxa and Length shape the simulated alignment (defaults 42 and 1167,
	// the dimensions of the paper's 42_SC input).
	Taxa   int
	Length int
	// Seed drives alignment simulation and the random tree (default 42).
	Seed int64
	// Rounds is the number of full sweeps each kernel is timed over
	// (default 3). More rounds cost proportionally more time.
	Rounds int
}

// KernelTiming is the measured steady-state cost of one likelihood kernel.
type KernelTiming struct {
	Class    FunctionClass
	MeanCall time.Duration // mean wall-clock time of one invocation in the fastest sweep
	Calls    int           // invocations measured
}

// Calibration is the result of timing the real kernels.
type Calibration struct {
	Timings  [numFunctionClasses]KernelTiming
	Patterns int // site patterns, the trip count of the parallel loops
	Taxa     int
	Length   int
}

// CalibrateNative builds a JC69, single-rate likelihood engine on a simulated
// alignment and times the three kernels in steady state (vectors and
// transition matrices settled), mirroring how the paper profiles RAxML with
// gprof before deciding what to off-load.
func CalibrateNative(o CalibrateOptions) (*Calibration, error) {
	if o.Taxa <= 0 {
		o.Taxa = 42
	}
	if o.Length <= 0 {
		o.Length = 1167
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}

	_, aln, err := phylo.Simulate(phylo.SimulateOptions{
		Taxa: o.Taxa, Length: o.Length, Seed: o.Seed, MeanBranchLength: 0.08,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: calibration alignment: %w", err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		return nil, fmt.Errorf("workload: calibration alignment: %w", err)
	}
	eng, err := phylo.NewEngine(data, phylo.NewJC69(), phylo.SingleRate())
	if err != nil {
		return nil, fmt.Errorf("workload: calibration engine: %w", err)
	}
	tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(o.Seed)))
	if err != nil {
		return nil, fmt.Errorf("workload: calibration tree: %w", err)
	}

	// Warm up: fill every edge's transition matrices so the timed sweeps
	// measure the steady-state kernel cost, not first-touch setup. Refresh is
	// the engine's full-recompute path; the timed sweeps below invoke the
	// kernels directly (Newview/EvaluateRoot/MakenewzEdge), which bypasses the
	// incremental dirty tracking entirely — every timed call does real
	// per-pattern work even though the tree never changes. The calibration
	// deliberately times the SHIPPED kernel configuration (tip tables on):
	// faster kernels shift the modeled EDTLP gains downward via Amdahl's law,
	// which is why E11 makes its claims at fixed, rescaled off-load lengths.
	eng.Refresh(tree)

	cal := &Calibration{Patterns: eng.NumPatterns(), Taxa: o.Taxa, Length: o.Length}

	var internal []*phylo.Node
	phylo.PostOrder(tree.Root, func(n *phylo.Node) {
		if !n.IsTip() {
			internal = append(internal, n)
		}
	})

	// newview: post-order sweeps over every internal node.
	cal.Timings[Newview] = timeKernel(Newview, o.Rounds, func() int {
		for _, n := range internal {
			// Kernel timing in isolation: inputs unchanged, so the recomputed
			// vectors are bit-identical and tracking stays consistent.
			eng.Newview(n)
		}
		return len(internal)
	})

	// evaluate: the root evaluation alone.
	cal.Timings[Evaluate] = timeKernel(Evaluate, o.Rounds, func() int {
		// Kernel timing in isolation: read-only against vectors Refresh just settled.
		eng.EvaluateRoot(tree)
		return 1
	})

	// makenewz: Newton-Raphson on every edge against fresh vectors (the
	// full Refresh restores every out vector the per-edge kernel reads).
	eng.Refresh(tree)
	edges := tree.Edges()
	cal.Timings[Makenewz] = timeKernel(Makenewz, o.Rounds, func() int {
		for _, v := range edges {
			// Kernel timing in isolation: MakenewzEdge never mutates the tree,
			// and Refresh above settled every vector it reads.
			eng.MakenewzEdge(v)
		}
		return len(edges)
	})

	return cal, nil
}

// minMeasureWindow is the minimum wall-clock time spent timing each kernel.
// A sweep of the cheap evaluate kernel can finish in microseconds; over such
// a window a single GC pause or OS preemption would dominate the mean and
// scramble the kernel ordering downstream consumers rely on.
const minMeasureWindow = 2 * time.Millisecond

// timeKernel runs sweep (which reports how many kernel calls it made) at
// least minRounds times and until minMeasureWindow has elapsed, returning the
// per-call mean of the fastest sweep, so that a sweep preempted on a loaded
// host cannot skew the kernel ratios the derived workload is built from.
func timeKernel(class FunctionClass, minRounds int, sweep func() int) KernelTiming {
	calls := 0
	var best time.Duration
	for r, start := 0, time.Now(); r < minRounds || time.Since(start) < minMeasureWindow; r++ {
		t0 := time.Now()
		n := sweep()
		if d := time.Since(t0) / time.Duration(n); r == 0 || d < best {
			best = d
		}
		calls += n
	}
	return KernelTiming{class, best, calls}
}

// Config derives a workload configuration from the measured kernels: the
// per-function durations and loop trip counts come from the measurements
// while the structural ratios the measurements cannot provide on commodity
// hardware — the PPE/SPE and naive/optimized slowdowns, DMA payloads, the
// call mix and the ~90% off-loadable coverage — are inherited from the
// paper's 42_SC parameterization.
func (cal *Calibration) Config() *Config {
	cfg := RAxML42SC().Clone()
	cfg.Name = "raxml-native-calibrated"
	for _, f := range cfg.Functions {
		measured := sim.Duration(cal.Timings[f.Class].MeanCall.Nanoseconds())
		if measured <= 0 {
			measured = sim.Nanosecond
		}
		naiveRatio := float64(f.NaiveSPETime) / float64(f.SPETime)
		ppeRatio := float64(f.PPETime) / float64(f.SPETime)
		f.SPETime = measured
		f.NaiveSPETime = sim.Duration(float64(measured) * naiveRatio)
		f.PPETime = sim.Duration(float64(measured) * ppeRatio)
		f.LoopIterations = cal.Patterns
	}
	// Keep the paper's 90%/10% SPE/PPE split for one bootstrap.
	cfg.MeanPPEGap = cfg.MeanSPETime() / 9
	return cfg
}

// String formats the calibration as a short profile table.
func (cal *Calibration) String() string {
	var total float64
	for _, t := range cal.Timings {
		total += float64(t.MeanCall)
	}
	s := fmt.Sprintf("calibration (%d taxa, %d sites, %d patterns):", cal.Taxa, cal.Length, cal.Patterns)
	for _, t := range cal.Timings {
		s += fmt.Sprintf(" %s=%v", t.Class, t.MeanCall.Round(time.Microsecond))
	}
	return s
}
