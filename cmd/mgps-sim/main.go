// Command mgps-sim runs one scheduler on the simulated Cell Broadband Engine
// for a chosen RAxML-style workload and reports the makespan, utilization and
// scheduling statistics. With -gantt it also prints a per-component activity
// chart, the visual counterpart of the paper's Figure 2.
//
// Examples:
//
//	mgps-sim -scheduler edtlp -bootstraps 8
//	mgps-sim -scheduler linux -bootstraps 8
//	mgps-sim -scheduler mgps  -bootstraps 4 -cells 2
//	mgps-sim -scheduler hybrid -spes-per-loop 4 -bootstraps 2 -gantt
package main

import (
	"flag"
	"fmt"
	"os"

	"cellmg/internal/cellsim"
	"cellmg/internal/offload"
	"cellmg/internal/sched"
	"cellmg/internal/workload"
)

func main() {
	var (
		scheduler   = flag.String("scheduler", "mgps", "scheduler: ppe-only | linux | edtlp | hybrid | mgps")
		bootstraps  = flag.Int("bootstraps", 8, "number of bootstraps (independent tasks)")
		cells       = flag.Int("cells", 1, "number of Cell processors on the blade")
		spesPerLoop = flag.Int("spes-per-loop", 4, "SPEs per parallel loop for the hybrid scheduler")
		calls       = flag.Int("calls", 600, "off-loaded calls per bootstrap (scaled workload)")
		naive       = flag.Bool("naive", false, "use the naive (unoptimized) SPE kernels of Section 5.1")
		gantt       = flag.Bool("gantt", false, "print an SPE/PPE activity chart")
	)
	flag.Parse()

	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = *calls
	level := offload.Optimized
	if *naive {
		level = offload.Naive
	}
	opt := sched.Options{
		Workload:    cfg,
		Bootstraps:  *bootstraps,
		NumCells:    *cells,
		Level:       level,
		SPEsPerLoop: *spesPerLoop,
	}

	res, err := sched.Run(*scheduler, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("scheduler:            %s\n", res.Scheduler)
	fmt.Printf("bootstraps:           %d on %d Cell(s), %d SPEs\n", res.Bootstraps, *cells, *cells*cellsim.SPEsPerCell)
	fmt.Printf("paper-equivalent:     %.2f s\n", res.PaperSeconds)
	fmt.Printf("simulated makespan:   %v\n", res.SimTime)
	fmt.Printf("mean SPE utilization: %.1f%%\n", 100*res.MeanSPEUtilization)
	fmt.Printf("PPE utilization:      %.1f%%\n", 100*res.PPEUtilization)
	fmt.Printf("serial off-loads:     %d\n", res.SerialOffloads)
	fmt.Printf("work-shared off-loads:%d\n", res.WorkSharedOffloads)
	fmt.Printf("context switches:     %d voluntary, %d kernel\n", res.ContextSwitches, res.KernelSwitches)
	fmt.Printf("SPE module loads:     %d\n", res.ModuleLoads)
	if res.MGPSEvaluations > 0 {
		fmt.Printf("MGPS windows:         %d evaluated, %d mode switches\n", res.MGPSEvaluations, res.MGPSSwitches)
	}

	if *gantt {
		fmt.Println()
		fmt.Println(ganttFor(opt, *scheduler))
	}
}

// ganttFor re-runs a short version of the chosen configuration with tracing
// enabled and renders the activity chart. The re-run keeps the main
// measurement untouched by tracing overhead.
func ganttFor(opt sched.Options, scheduler string) string {
	return sched.TraceGantt(opt, scheduler, 100)
}
