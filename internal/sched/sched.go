// Package sched implements the paper's scheduling policies on the simulated
// Cell machine and measures them the way the paper does: wall-clock time to
// complete a given number of RAxML bootstraps.
//
// Four schedulers are provided:
//
//   - RunLinux: the baseline of Table 1 — MPI processes time-shared over the
//     two PPE SMT contexts by a kernel scheduler with a 10 ms quantum, each
//     process spin-waiting on its off-loaded tasks while it holds a context.
//   - RunEDTLP: the event-driven task-level parallelism scheduler of Section
//     5.2 — a user-level scheduler switches MPI processes voluntarily at
//     every off-load, so the PPE can keep up to eight SPEs busy.
//   - RunStaticHybrid: the static EDTLP-LLP scheme of Section 5.4/Figure 7 —
//     every off-loaded task work-shares its loops across a fixed number of
//     SPEs.
//   - RunMGPS: the adaptive multigrain scheduler of Section 5.4/Figure 8 —
//     EDTLP whose SPE grants follow the policy.MGPS controller, which
//     activates and throttles loop-level parallelism from the observed degree
//     of task-level parallelism.
//
// The three event-driven schedulers are one execution model (edtlp.go) over a
// policy.Pool per Cell; they differ only in the pool each Cell is given.
//
// RunPPEOnly and the offload.Naive optimization level reproduce the Section
// 5.1 off-loading ablation.
//
// TraceGantt draws what every SPE and PPE did during a shortened run as an
// ASCII activity chart (the paper's Figure 2), from the intervals the
// machine reports through Options.Trace (gantt.go).
package sched

import (
	"fmt"
	"strconv"
	"strings"

	"cellmg/internal/cellsim"
	"cellmg/internal/offload"
	"cellmg/internal/policy"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// Options configures a scheduler run.
type Options struct {
	// Workload is the task-graph model to execute (required).
	Workload *workload.Config
	// Bootstraps is the number of independent bootstrap processes to run.
	Bootstraps int
	// NumCells is the number of Cell processors on the blade (1 or 2 in the
	// paper). Defaults to 1.
	NumCells int
	// Cost overrides the hardware cost model. Defaults to
	// cellsim.DefaultCostModel.
	Cost *cellsim.CostModel
	// Level selects the optimized or naive SPE kernels. Defaults to
	// Optimized.
	Level offload.OptLevel
	// SPEsPerLoop is the fixed loop width for RunStaticHybrid (2 or 4 in the
	// paper).
	SPEsPerLoop int
	// MGPS overrides the adaptive controller's parameters for RunMGPS; the
	// zero value selects the paper's defaults for the per-Cell SPE count.
	MGPS policy.MGPSConfig
	// Trace, when non-nil, receives every compute/DMA interval of the
	// simulated machine (see cellsim.TraceFunc); cmd/mgps-sim uses it to
	// render activity charts.
	Trace cellsim.TraceFunc
}

func (o Options) withDefaults() Options {
	if o.NumCells <= 0 {
		o.NumCells = 1
	}
	if o.Cost == nil {
		o.Cost = cellsim.DefaultCostModel()
	}
	if o.Bootstraps <= 0 {
		o.Bootstraps = 1
	}
	return o
}

// Result summarises one scheduler run.
type Result struct {
	Scheduler  string
	Bootstraps int

	// SimTime is the simulated makespan; PaperSeconds is the makespan scaled
	// to paper-equivalent seconds (see workload.Config.ScaleFactor).
	SimTime      sim.Duration
	PaperSeconds float64

	// ProcFinish holds each process' completion time (simulated).
	ProcFinish []sim.Duration

	// MeanSPEUtilization is the average busy fraction of all SPEs over the
	// makespan; PPEUtilization is the same for PPE contexts.
	MeanSPEUtilization float64
	PPEUtilization     float64

	// Bookkeeping counters.
	SerialOffloads     int
	WorkSharedOffloads int
	PPEFallbacks       int
	ContextSwitches    int
	KernelSwitches     int
	ModuleLoads        int
	MGPSSwitches       int
	MGPSEvaluations    int
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d bootstraps in %.2f paper-s (sim %v, SPE util %.0f%%)",
		r.Scheduler, r.Bootstraps, r.PaperSeconds, r.SimTime, 100*r.MeanSPEUtilization)
}

// Speedup returns how much faster this result is than other (other / this).
func (r Result) Speedup(other Result) float64 {
	if r.PaperSeconds == 0 {
		return 0
	}
	return other.PaperSeconds / r.PaperSeconds
}

// run holds the state shared by one scheduler execution.
type run struct {
	opt     Options
	eng     *sim.Engine
	machine *cellsim.Machine
	rt      *offload.Runtime
	cells   []*cellRun
	finish  []sim.Duration
}

// cellRun is the per-Cell scheduling state, mirroring the paper's
// per-processor shared arena: the pool that decides which SPEs an off-load
// gets, the condition processes wait on while it cannot grant them, and
// run-queue bookkeeping.
type cellRun struct {
	parent  *run
	cell    *cellsim.Cell
	pool    *policy.Pool
	speFree *sim.Condition
	// procs assigned to this cell, and how many are still unfinished.
	assigned   int
	unfinished int
	// persistentGroups marks the static EDTLP-LLP scheme, where each MPI
	// process binds its SPE group for its whole lifetime ("the PPEs can
	// execute four or two concurrent bootstraps" with 2 or 4 SPEs per loop),
	// as opposed to MGPS, which acquires and releases SPEs per off-load.
	persistentGroups bool
	// workers is offload's scratch list of a group's worker SPEs, which
	// OffloadWorkShared does not retain.
	workers []*cellsim.SPE
}

const noWorkloadMsg = "sched: Options.Workload is required"

func newRun(opt Options) *run {
	opt = opt.withDefaults()
	if opt.Workload == nil {
		panic(noWorkloadMsg)
	}
	if err := opt.Workload.Validate(); err != nil {
		panic(fmt.Sprintf("sched: invalid workload: %v", err))
	}
	eng := sim.NewEngine()
	machine := cellsim.NewMachine(eng, opt.Cost, opt.NumCells)
	machine.Trace = opt.Trace
	r := &run{
		opt:     opt,
		eng:     eng,
		machine: machine,
		rt:      offload.NewRuntime(machine, opt.Workload, opt.Level),
		finish:  make([]sim.Duration, opt.Bootstraps),
	}
	for _, c := range machine.Cells {
		r.cells = append(r.cells, &cellRun{
			parent: r,
			cell:   c,
			// One SPE per off-load (EDTLP) unless the scheduler installs
			// another pool before it spawns its processes.
			pool:    policy.NewFixedPool(cellsim.SPEsPerCell, policy.Decision{SPEsPerLoop: 1}),
			speFree: sim.NewCondition(eng),
		})
	}
	return r
}

// cellFor assigns bootstrap processes to Cells round-robin.
func (r *run) cellFor(procID int) *cellRun { return r.cells[procID%len(r.cells)] }

// complete runs the simulation to its end, reads the Result off the machine
// and shuts the engine down: the kernel dispatchers and the SPEs wait for
// work forever, and only Close ends them and drops what the engine holds.
func (r *run) complete(name string) Result {
	r.eng.Run()
	res := r.result(name)
	r.eng.Close()
	return res
}

// result gathers counters into a Result once the simulation has finished.
func (r *run) result(name string) Result {
	res := Result{
		Scheduler:          name,
		Bootstraps:         r.opt.Bootstraps,
		ProcFinish:         r.finish,
		SerialOffloads:     r.rt.Stats.SerialOffloads,
		WorkSharedOffloads: r.rt.Stats.WorkSharedOffloads,
		PPEFallbacks:       r.rt.Stats.PPEExecutions,
	}
	var max sim.Duration
	for _, f := range r.finish {
		if f > max {
			max = f
		}
	}
	res.SimTime = max
	res.PaperSeconds = max.Seconds() * r.opt.Workload.ScaleFactor()
	util := r.machine.Utilization()
	res.MeanSPEUtilization = util.MeanSPEBusy
	for _, u := range util.PPEBusy {
		res.PPEUtilization += u
	}
	if len(util.PPEBusy) > 0 {
		res.PPEUtilization /= float64(len(util.PPEBusy))
	}
	for _, c := range r.machine.Cells {
		res.ContextSwitches += c.PPE.Switches()
		res.KernelSwitches += c.PPE.KernelSwitches()
	}
	for _, spe := range r.machine.AllSPEs() {
		res.ModuleLoads += spe.ModuleLoads()
	}
	for _, c := range r.cells {
		evaluations, switches := c.pool.Counts()
		res.MGPSEvaluations += evaluations
		res.MGPSSwitches += switches
	}
	return res
}

// Run executes the scheduler of the given name, in any letter case:
// "ppe-only", "linux", "edtlp", "hybrid" (or "edtlp-llp"; "edtlp-llp(N)" also
// sets opt.SPEsPerLoop to N, a loop width from 2 to the SPEs of one Cell) or
// "mgps" — the names the commands take plus every name a Result.Scheduler
// carries. Anything else, a malformed or out-of-range width included, is an
// unknown scheduler.
func Run(name string, opt Options) (Result, error) {
	lower := strings.ToLower(name)
	if inner, ok := strings.CutPrefix(lower, "edtlp-llp("); ok {
		width, _ := strconv.Atoi(strings.TrimSuffix(inner, ")"))
		if lower != fmt.Sprintf("edtlp-llp(%d)", width) || width < 2 || width > cellsim.SPEsPerCell {
			return Result{}, fmt.Errorf("sched: unknown scheduler %q", name)
		}
		opt.SPEsPerLoop = width
		lower = "hybrid"
	}
	switch lower {
	case "ppe-only":
		return RunPPEOnly(opt), nil
	case "linux":
		return RunLinux(opt), nil
	case "edtlp":
		return RunEDTLP(opt), nil
	case "hybrid", "edtlp-llp":
		return RunStaticHybrid(opt), nil
	case "mgps":
		return RunMGPS(opt), nil
	default:
		return Result{}, fmt.Errorf("sched: unknown scheduler %q", name)
	}
}

// RunPPEOnly executes the workload entirely on the PPE (no off-loading at
// all): the starting point of the Section 5.1 optimization story. Processes
// are time-shared over the PPE contexts by the kernel scheduler.
func RunPPEOnly(opt Options) Result {
	r := newRun(opt)
	procs := opt.Workload.Job(r.opt.Bootstraps)
	runKernelScheduled(r, procs, true)
	return r.complete("PPE-only")
}

// RunLinux executes the workload with off-loading but under the native
// kernel scheduler: one MPI process per PPE context at a time, a 10 ms
// quantum, and spin-waiting on off-load completion (Table 1, third column).
func RunLinux(opt Options) Result {
	r := newRun(opt)
	procs := opt.Workload.Job(r.opt.Bootstraps)
	runKernelScheduled(r, procs, false)
	return r.complete("Linux")
}

// RunEDTLP executes the workload under the event-driven task-level
// parallelism scheduler (Table 1, second column; the EDTLP curves of Figures
// 7-9).
func RunEDTLP(opt Options) Result {
	r := newRun(opt)
	r.spawnEventDriven()
	return r.complete("EDTLP")
}

// RunStaticHybrid executes the workload under the static EDTLP-LLP scheme:
// every off-loaded task work-shares its loops over a fixed number of SPEs
// (Options.SPEsPerLoop; the paper uses 2 and 4).
func RunStaticHybrid(opt Options) Result {
	if opt.SPEsPerLoop <= 0 {
		opt.SPEsPerLoop = 2
	}
	r := newRun(opt)
	for _, c := range r.cells {
		c.pool = policy.NewFixedPool(cellsim.SPEsPerCell, policy.StaticLLPDecision(r.opt.SPEsPerLoop))
		c.persistentGroups = c.pool.Decision().UseLLP
	}
	r.spawnEventDriven()
	return r.complete(fmt.Sprintf("EDTLP-LLP(%d)", r.opt.SPEsPerLoop))
}

// RunMGPS executes the workload under the adaptive multigrain scheduler.
func RunMGPS(opt Options) Result {
	r := newRun(opt)
	for _, c := range r.cells {
		c.pool = policy.NewAdaptivePool(cellsim.SPEsPerCell, r.opt.MGPS)
	}
	r.spawnEventDriven()
	return r.complete("MGPS")
}
