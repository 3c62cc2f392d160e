package workload

import (
	"fmt"
	"math/rand"

	"cellmg/internal/sim"
)

// FunctionClass identifies one of the off-loadable likelihood functions of
// RAxML.
type FunctionClass int

const (
	// Newview computes the conditional likelihood vector of an inner tree
	// node (76.8% of sequential execution time).
	Newview FunctionClass = iota
	// Evaluate computes the log likelihood of the tree at a branch (2.37%).
	Evaluate
	// Makenewz optimizes a branch length with Newton-Raphson iterations
	// (19.6%).
	Makenewz
	numFunctionClasses
)

// String returns the RAxML function name.
func (f FunctionClass) String() string {
	switch f {
	case Newview:
		return "newview"
	case Evaluate:
		return "evaluate"
	case Makenewz:
		return "makenewz"
	default:
		return fmt.Sprintf("FunctionClass(%d)", int(f))
	}
}

// FunctionSpec describes one off-loadable function: how long it runs on each
// kind of core, and the structure of the parallel loop it contains. The
// scheduler models treat these as opaque cost descriptors; the native runtime
// binds them to real code.
type FunctionSpec struct {
	Class FunctionClass
	Name  string

	// SPETime is the duration of the optimized (vectorized, pipelined,
	// DMA-aggregated) serial SPE version of one invocation.
	SPETime sim.Duration
	// NaiveSPETime is the duration of the unoptimized SPE version
	// (double-precision scalar code, mispredicted branches, unoptimized DMA,
	// expensive math library calls) used by the Section 5.1 ablation.
	NaiveSPETime sim.Duration
	// PPETime is the duration of one invocation executed on the PPE instead
	// of being off-loaded; it is what the EDTLP granularity test compares
	// against and what the PPE-only baseline uses.
	PPETime sim.Duration

	// LoopIterations is the trip count of the parallelizable site loop
	// (228 for the 42_SC alignment: one iteration per alignment pattern).
	LoopIterations int
	// LoopFraction is the fraction of SPETime spent inside the parallel
	// loop; the remainder is serial prologue/epilogue that LLP cannot touch.
	LoopFraction float64
	// ReducePerWorker is the time the master SPE spends merging one worker's
	// partial result (the global reductions the paper identifies as an LLP
	// bottleneck).
	ReducePerWorker sim.Duration
	// WorkerInputBytes is the data each LLP worker must fetch into its local
	// store before executing its loop chunk.
	WorkerInputBytes int

	// InputBytes and OutputBytes are the per-invocation DMA payloads of the
	// serial off-loaded version.
	InputBytes  int
	OutputBytes int

	// CodeSize is this function's contribution to the off-loaded code
	// module.
	CodeSize int
}

// LoopTime returns the portion of the optimized SPE execution spent in the
// parallel loop.
func (f *FunctionSpec) LoopTime() sim.Duration {
	return sim.Duration(float64(f.SPETime) * f.LoopFraction)
}

// SerialTime returns the non-loop portion of the optimized SPE execution.
func (f *FunctionSpec) SerialTime() sim.Duration { return f.SPETime - f.LoopTime() }

// IterationTime returns the cost of a single loop iteration on one SPE.
func (f *FunctionSpec) IterationTime() sim.Duration {
	if f.LoopIterations == 0 {
		return 0
	}
	return f.LoopTime() / sim.Duration(f.LoopIterations)
}

// StepKind distinguishes the two kinds of work in a process' execution.
type StepKind int

const (
	// PPECompute is a burst of code that must run on the PPE (tree
	// rearrangement bookkeeping, MPI progress, scheduling of the next
	// off-load).
	PPECompute StepKind = iota
	// OffloadCall is an invocation of an off-loadable function.
	OffloadCall
)

// Step is one unit in a process' deterministic execution sequence.
type Step struct {
	Kind     StepKind
	Duration sim.Duration  // for PPECompute
	Fn       *FunctionSpec // for OffloadCall
	// Scale multiplies the function's nominal durations for this particular
	// invocation (per-call jitter).
	Scale float64
}

// Process is one MPI rank performing one bootstrap (or inference): a
// deterministic alternation of PPE bursts and off-loadable calls.
type Process struct {
	ID    int
	Steps []Step
}

// Config describes a workload: the mix of off-loadable functions, the PPE
// gaps between them, and how many calls one bootstrap performs.
type Config struct {
	// Name identifies the workload in reports.
	Name string
	// Functions is the set of off-loadable functions.
	Functions []*FunctionSpec
	// Mix gives the relative invocation frequency of each function
	// (parallel to Functions; normalized internally).
	Mix []float64
	// MeanPPEGap is the average PPE burst between consecutive off-loads
	// (11 us for RAxML on 42_SC, Section 5.2).
	MeanPPEGap sim.Duration
	// Jitter is the relative half-width of the uniform per-call duration
	// variation applied to both gaps and calls (0 disables it).
	Jitter float64
	// CallsPerBootstrap is the number of off-loads one simulated bootstrap
	// performs; see ScaleFactor.
	CallsPerBootstrap int
	// RealCallsPerBootstrap is the number of off-loads a real bootstrap
	// performs; used only to convert simulated time to paper-equivalent
	// seconds.
	RealCallsPerBootstrap int
	// Seed makes workload generation deterministic.
	Seed int64
	// ModuleCodeSize is the size of the single code module holding all
	// off-loaded functions (117 KB in the paper).
	ModuleCodeSize int
}

// RAxML42SC returns the workload parameterization of RAxML bootstrap
// analyses on the 42_SC input, derived from the paper as follows.
//
//   - The mean off-loaded task lasts 96 us and the mean PPE stretch between
//     off-loads lasts 11 us (Section 5.2), giving the 90%/10% SPE/PPE split
//     quoted for one bootstrap.
//   - The per-function durations are chosen so that the invocation-weighted
//     mean is 96 us and the time shares match the gprof profile of Section
//     5.1 (newview 76.8%, makenewz 19.6%, evaluate 2.37%).
//   - The PPE version of each function is 1.36x slower than the optimized
//     SPE version: one bootstrap takes 38.23 s entirely on the PPE versus
//     28.82 s with optimized off-loading (Section 5.1), and the 10% PPE
//     portion is common to both.
//   - The naive SPE version is 1.83x slower than the optimized one: naive
//     off-loading takes 50.38 s (Section 5.1).
//   - Each parallel loop has 228 iterations (Section 5.3) and the loop
//     bodies cover roughly 55-60% of the off-loaded code, which is what
//     bounds the LLP speedup of Table 2 together with the per-worker
//     communication and reduction overheads.
//   - A real bootstrap performs about 270,000 off-loads (25.9 s of 96 us
//     tasks); the simulated bootstrap defaults to 600 off-loads and results
//     are scaled back by ScaleFactor.
func RAxML42SC() *Config {
	newview := &FunctionSpec{
		Class:            Newview,
		Name:             "newview",
		SPETime:          105 * sim.Microsecond,
		NaiveSPETime:     192 * sim.Microsecond,
		PPETime:          143 * sim.Microsecond,
		LoopIterations:   228,
		LoopFraction:     0.60,
		ReducePerWorker:  0, // newview has no global reduction
		WorkerInputBytes: 3 * 1024,
		InputBytes:       15 * 1024,
		OutputBytes:      8 * 1024,
		CodeSize:         55 * 1024,
	}
	makenewz := &FunctionSpec{
		Class:            Makenewz,
		Name:             "makenewz",
		SPETime:          75 * sim.Microsecond,
		NaiveSPETime:     137 * sim.Microsecond,
		PPETime:          102 * sim.Microsecond,
		LoopIterations:   228,
		LoopFraction:     0.55,
		ReducePerWorker:  400 * sim.Nanosecond,
		WorkerInputBytes: 4 * 1024,
		InputBytes:       12 * 1024,
		OutputBytes:      256,
		CodeSize:         40 * 1024,
	}
	evaluate := &FunctionSpec{
		Class:            Evaluate,
		Name:             "evaluate",
		SPETime:          45 * sim.Microsecond,
		NaiveSPETime:     82 * sim.Microsecond,
		PPETime:          61 * sim.Microsecond,
		LoopIterations:   228,
		LoopFraction:     0.55,
		ReducePerWorker:  400 * sim.Nanosecond,
		WorkerInputBytes: 4 * 1024,
		InputBytes:       10 * 1024,
		OutputBytes:      128,
		CodeSize:         22 * 1024,
	}
	return &Config{
		Name:                  "raxml-42SC",
		Functions:             []*FunctionSpec{newview, makenewz, evaluate},
		Mix:                   []float64{0.70, 0.25, 0.05},
		MeanPPEGap:            11 * sim.Microsecond,
		Jitter:                0.20,
		CallsPerBootstrap:     600,
		RealCallsPerBootstrap: 270000,
		Seed:                  42,
		ModuleCodeSize:        117 * 1024,
	}
}

// Clone returns a deep copy of the configuration (function specs included) so
// experiments can perturb parameters independently.
func (c *Config) Clone() *Config {
	cp := *c
	cp.Functions = make([]*FunctionSpec, len(c.Functions))
	for i, f := range c.Functions {
		fc := *f
		cp.Functions[i] = &fc
	}
	cp.Mix = append([]float64(nil), c.Mix...)
	return &cp
}

// ScaleFactor converts simulated seconds into paper-equivalent seconds: the
// simulated bootstrap performs CallsPerBootstrap off-loads whereas the real
// one performs RealCallsPerBootstrap.
func (c *Config) ScaleFactor() float64 {
	if c.CallsPerBootstrap <= 0 || c.RealCallsPerBootstrap <= 0 {
		return 1
	}
	return float64(c.RealCallsPerBootstrap) / float64(c.CallsPerBootstrap)
}

// MeanSPETime returns the invocation-frequency-weighted mean duration of the
// optimized off-loaded functions.
func (c *Config) MeanSPETime() sim.Duration {
	var total, weight float64
	for i, f := range c.Functions {
		total += c.Mix[i] * float64(f.SPETime)
		weight += c.Mix[i]
	}
	if weight == 0 {
		return 0
	}
	return sim.Duration(total / weight)
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	if len(c.Functions) == 0 {
		return fmt.Errorf("workload %q has no functions", c.Name)
	}
	if len(c.Mix) != len(c.Functions) {
		return fmt.Errorf("workload %q: mix has %d entries for %d functions", c.Name, len(c.Mix), len(c.Functions))
	}
	var sum float64
	for _, m := range c.Mix {
		if m < 0 {
			return fmt.Errorf("workload %q: negative mix entry", c.Name)
		}
		sum += m
	}
	if sum == 0 {
		return fmt.Errorf("workload %q: mix sums to zero", c.Name)
	}
	if c.CallsPerBootstrap <= 0 {
		return fmt.Errorf("workload %q: CallsPerBootstrap must be positive", c.Name)
	}
	for _, f := range c.Functions {
		if f.SPETime <= 0 || f.PPETime <= 0 {
			return fmt.Errorf("function %q has non-positive durations", f.Name)
		}
		if f.LoopFraction < 0 || f.LoopFraction > 1 {
			return fmt.Errorf("function %q has loop fraction %v outside [0,1]", f.Name, f.LoopFraction)
		}
		if f.Jittered(1.0).SPETime != f.SPETime {
			return fmt.Errorf("function %q: identity jitter changed durations", f.Name)
		}
	}
	return nil
}

// Jittered returns a copy of the spec whose durations are multiplied by
// scale. It is used by the native runtime; the simulator keeps the scale in
// the Step instead.
func (f *FunctionSpec) Jittered(scale float64) FunctionSpec {
	c := *f
	c.SPETime = sim.Duration(float64(f.SPETime) * scale)
	c.NaiveSPETime = sim.Duration(float64(f.NaiveSPETime) * scale)
	c.PPETime = sim.Duration(float64(f.PPETime) * scale)
	return c
}

// Bootstrap generates the deterministic step sequence of one bootstrap
// process. The same (config, id) pair always yields the same sequence.
func (c *Config) Bootstrap(id int) *Process {
	rng := rand.New(rand.NewSource(c.Seed + int64(id)*7919))
	p := &Process{ID: id}
	p.Steps = make([]Step, 0, 2*c.CallsPerBootstrap)
	var cum []float64
	var sum float64
	for _, m := range c.Mix {
		sum += m
		cum = append(cum, sum)
	}
	jitter := func() float64 {
		if c.Jitter <= 0 {
			return 1
		}
		return 1 + c.Jitter*(2*rng.Float64()-1)
	}
	for call := 0; call < c.CallsPerBootstrap; call++ {
		gap := sim.Duration(float64(c.MeanPPEGap) * jitter())
		p.Steps = append(p.Steps, Step{Kind: PPECompute, Duration: gap, Scale: 1})
		r := rng.Float64() * sum
		idx := 0
		for i, cv := range cum {
			if r <= cv {
				idx = i
				break
			}
		}
		p.Steps = append(p.Steps, Step{Kind: OffloadCall, Fn: c.Functions[idx], Scale: jitter()})
	}
	return p
}

// Job generates n bootstrap processes (IDs 0..n-1).
func (c *Config) Job(n int) []*Process {
	ps := make([]*Process, n)
	for i := range ps {
		ps[i] = c.Bootstrap(i)
	}
	return ps
}
