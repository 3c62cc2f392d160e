// Package offload implements the off-loading runtime of the paper on top of
// the simulated Cell machine: shipping the merged code module to SPE local
// stores, dispatching serial kernel invocations, executing loop-level
// work-sharing (LLP) across several SPEs with direct SPE-to-SPE Pass
// signalling, and the EDTLP granularity test.
//
// The runtime is mechanism, not policy: it executes whatever the schedulers
// in package sched decide. It mirrors Sections 5.1-5.3 of the paper:
//
//   - All off-loadable functions are merged into a single code module that is
//     pre-loaded on the SPEs and reused across invocations (t_code = 0 after
//     the first load).
//   - Two SPE versions of each function exist: one without parallelized
//     loops ("serial" module) and one with them ("parallel" module). Whenever
//     the scheduler switches between LLP and non-LLP execution on an SPE, the
//     other module has to be (re)shipped, which is the code-replacement
//     overhead discussed in Section 5.4.
//   - Work-sharing follows Figures 4-6: the master SPE sends a Pass structure
//     to each worker, the workers fetch their data, execute their loop
//     chunks and return their partial results directly to the master's local
//     store, and the master accumulates them before committing to memory.
//   - The master purposely executes a larger share of the loop than the
//     workers to compensate for their start-up delay (signal delivery plus
//     data fetch), mirroring the paper's purposeful load unbalancing.
package offload

import (
	"fmt"

	"cellmg/internal/cellsim"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// OptLevel selects between the naive SPE port and the fully optimized one
// (vectorized loops and conditionals, pipelined vector operations, aggregated
// DMA, numerical approximations of log/exp), reproducing Section 5.1.
type OptLevel int

const (
	// Optimized is the tuned SPE code used in all headline experiments.
	Optimized OptLevel = iota
	// Naive is the straightforward port measured at 50.38 s per bootstrap.
	Naive
)

func (o OptLevel) String() string {
	if o == Naive {
		return "naive"
	}
	return "optimized"
}

// The two SPE code versions.
const (
	SerialModule cellsim.Module = iota + 1
	ParallelModule
)

// parallelModuleOverhead is the relative code-size increase of the module
// containing the work-sharing loop versions (extra communication and
// distribution code).
const parallelModuleOverhead = 1.15

// Stats counts what the runtime did; schedulers expose them in results.
type Stats struct {
	SerialOffloads     int
	WorkSharedOffloads int
	PPEExecutions      int // invocations that failed the granularity test and ran on the PPE
}

// Runtime binds the off-load mechanisms to one machine and one workload
// configuration.
type Runtime struct {
	Machine *cellsim.Machine
	Config  *workload.Config
	Level   OptLevel

	// MasterIssueCost is the time the master SPE spends issuing one Pass
	// mfc_put to a worker (filling in the argument addresses and issuing the
	// put; the puts are issued back to back, so they serialize on the
	// master).
	MasterIssueCost sim.Duration
	// PassHandlingCost is the time the master SPE spends consuming one
	// worker's returned Pass structure (checking the signal word and reading
	// the result fields), in addition to any function-specific reduction.
	PassHandlingCost sim.Duration

	Stats Stats

	// The master program and its join section under construction, reused by
	// every work-shared off-load (SPE.Submit copies a program).
	prog, joins []cellsim.Op
}

// NewRuntime creates an off-load runtime for the machine and workload.
func NewRuntime(m *cellsim.Machine, cfg *workload.Config, level OptLevel) *Runtime {
	return &Runtime{
		Machine:          m,
		Config:           cfg,
		Level:            level,
		MasterIssueCost:  500 * sim.Nanosecond,
		PassHandlingCost: 300 * sim.Nanosecond,
	}
}

func (r *Runtime) moduleSize(m cellsim.Module) int {
	if m == ParallelModule {
		return int(float64(r.Config.ModuleCodeSize) * parallelModuleOverhead)
	}
	return r.Config.ModuleCodeSize
}

// GranularityOK implements the EDTLP off-loading test of Section 5.2:
// t_spe + t_code + 2*t_comm < t_ppe. codeResident states whether the serial
// module is already loaded on the target SPE (t_code = 0 in that case).
func (r *Runtime) GranularityOK(fn *workload.FunctionSpec, codeResident bool) bool {
	cost := r.Machine.Cost
	tspe := r.speTime(fn, 1.0)
	var tcode sim.Duration
	if !codeResident {
		tcode = cost.DMATime(r.moduleSize(SerialModule))
	}
	return tspe+tcode+cost.RoundTripSignal() < fn.PPETime
}

// speTime returns the duration of the serial SPE version of one invocation
// at the runtime's optimization level.
func (r *Runtime) speTime(fn *workload.FunctionSpec, scale float64) sim.Duration {
	base := fn.SPETime
	if r.Level == Naive {
		base = fn.NaiveSPETime
	}
	return sim.Duration(float64(base) * scale)
}

// Flight is the signals of one off-load in flight, owned by whoever issues
// it: Done, which fires on the PPE side once the result notification
// arrives, and, for a work-shared loop, each worker's start and result Pass.
// An MPI process or a kernel dispatcher has at most one off-load in flight,
// so each owns one Flight, and every off-load rearms the signals it uses:
// issuing an off-load allocates nothing once its Flight has served a loop as
// wide.
type Flight struct {
	Done *sim.Signal
	pass []*sim.Signal // worker w's start Pass, then its result Pass
}

// NewFlight creates the signals of one off-load in flight on eng.
func NewFlight(eng *sim.Engine) *Flight { return &Flight{Done: sim.NewSignal(eng)} }

// OffloadSerial submits one invocation of fn to the SPE using the serial
// (non-work-shared) code version; f.Done fires on the PPE side once the
// result notification arrives. The previous off-load of f must have
// completed.
func (r *Runtime) OffloadSerial(spe *cellsim.SPE, fn *workload.FunctionSpec, scale float64, f *Flight) {
	r.Stats.SerialOffloads++
	f.Done.Rearm()
	submit(spe, []cellsim.Op{
		cellsim.LoadModule(SerialModule, r.moduleSize(SerialModule)),
		cellsim.KernelStartup(),
		cellsim.DMAGet(fn.InputBytes),
		cellsim.Compute(r.speTime(fn, scale)),
		cellsim.DMAPut(fn.OutputBytes),
		cellsim.NotifyPPE(f.Done),
	})
}

// submit hands prog to the SPE. A workload whose code module does not fit the
// local store cannot be simulated, and panics here.
func submit(spe *cellsim.SPE, prog []cellsim.Op) {
	if err := spe.Submit(prog, nil); err != nil {
		panic(fmt.Sprintf("offload: %v", err))
	}
}

// loopSplit computes how many iterations the master and each worker execute.
// The workers start later than the master: worker w only begins computing
// after the master has issued w+1 Pass puts, the signal has propagated, and
// the worker has fetched its inputs. The split shifts iterations from the
// workers to the master so that everybody finishes at about the same time —
// the paper's purposeful load unbalancing, which it tunes from observed idle
// times; here the cost model gives the same answer analytically.
func (r *Runtime) loopSplit(fn *workload.FunctionSpec, workers int) (master int, worker int) {
	n := fn.LoopIterations
	if workers <= 0 {
		return n, 0
	}
	iter := float64(fn.IterationTime())
	if iter <= 0 {
		return n, 0
	}
	cost := r.Machine.Cost
	// Mean worker start-up delay relative to the master's first iteration.
	// Each product that meets a sum is rounded (float64(...)), so no
	// architecture fuses it and every one gets the same split; x / 2 is
	// compiled as x * 0.5, a product too.
	meanIssue := float64(float64(r.MasterIssueCost) * float64(workers+1) / 2)
	delay := meanIssue + float64(cost.SPEToSPESignal) + float64(cost.DMATime(fn.WorkerInputBytes))
	// Solve master*iter = delay + worker*iter subject to master + workers*worker = n.
	m := (float64(float64(n)*iter) + float64(float64(workers)*delay)) / (float64(workers+1) * iter)
	master = int(m + 0.5)
	if master > n {
		master = n
	}
	if master < 1 {
		master = 1
	}
	worker = (n - master) / workers
	master = n - worker*workers // give any remainder to the master
	return master, worker
}

// OffloadWorkShared submits one invocation of fn whose parallel loop is
// work-shared between a master SPE and the given worker SPEs, following the
// Pass-structure protocol of Figures 4-6; f.Done fires on the PPE side when
// the master commits the merged result. The previous off-load of f must have
// completed: its Pass signals are rearmed for this one.
//
// If workers is empty this degenerates to a serial off-load that merely uses
// the parallel code module. The workers slice is not retained.
func (r *Runtime) OffloadWorkShared(master *cellsim.SPE, workers []*cellsim.SPE, fn *workload.FunctionSpec, scale float64, f *Flight) {
	r.Stats.WorkSharedOffloads++
	load := cellsim.LoadModule(ParallelModule, r.moduleSize(ParallelModule))
	f.Done.Rearm()
	for len(f.pass) < 2*len(workers) {
		f.pass = append(f.pass, sim.NewSignal(r.Machine.Eng))
	}

	masterIters, workerIters := r.loopSplit(fn, len(workers))
	iterTime := sim.Duration(float64(fn.IterationTime()) * scale)
	serialTime := sim.Duration(float64(fn.SerialTime()) * scale)
	if r.Level == Naive {
		naiveFactor := float64(fn.NaiveSPETime) / float64(fn.SPETime)
		iterTime = sim.Duration(float64(iterTime) * naiveFactor)
		serialTime = sim.Duration(float64(serialTime) * naiveFactor)
	}

	workerOutput := 0
	if len(workers) > 0 {
		workerOutput = fn.OutputBytes / (len(workers) + 1)
	}
	reduce := r.PassHandlingCost + sim.Duration(float64(fn.ReducePerWorker)*scale)

	// Worker side: wait for the Pass, fetch inputs, run the chunk, commit any
	// bulk output of its share directly to memory and send the partial
	// result (or completion notification) straight back to the master's
	// local store. Master side: distribute (issue the mfc_put of each Pass
	// structure), compute the serial prologue/epilogue plus its own (larger)
	// loop share, join and reduce, commit, notify the PPE.
	prog := append(r.prog[:0], load, cellsim.KernelStartup(), cellsim.DMAGet(fn.InputBytes))
	joins := r.joins[:0]
	for i, w := range workers {
		start, result := f.pass[2*i], f.pass[2*i+1]
		start.Rearm()
		result.Rearm()
		submit(w, []cellsim.Op{
			load,
			cellsim.WaitSignal(start),
			cellsim.DMAGet(fn.WorkerInputBytes),
			cellsim.Compute(sim.Duration(workerIters) * iterTime),
			cellsim.DMAPut(workerOutput),
			cellsim.SendPass(result),
		})
		prog = append(prog, cellsim.Compute(r.MasterIssueCost), cellsim.SendPass(start))
		joins = append(joins, cellsim.WaitSignal(result), cellsim.Compute(reduce))
	}
	prog = append(prog, cellsim.Compute(serialTime+sim.Duration(masterIters)*iterTime))
	prog = append(prog, joins...)
	prog = append(prog, cellsim.DMAPut(fn.OutputBytes-workerOutput*len(workers)), cellsim.NotifyPPE(f.Done))
	submit(master, prog)
	r.prog, r.joins = prog, joins
}

// RunOnPPE returns the time one invocation takes when it is not off-loaded
// at all (the PPE fallback version kept for tasks that fail the granularity
// test, and the PPE-only baseline of Section 5.1).
func (r *Runtime) RunOnPPE(fn *workload.FunctionSpec, scale float64) sim.Duration {
	r.Stats.PPEExecutions++
	return sim.Duration(float64(fn.PPETime) * scale)
}
