package sched

import (
	"fmt"

	"cellmg/internal/trace"
)

// TraceGantt runs the named scheduler on a shortened copy of the workload
// with activity tracing enabled and renders an ASCII Gantt chart with the
// given number of columns. It is a visualization helper for cmd/mgps-sim and
// the examples: the returned chart shows what every SPE and PPE was doing
// over the (shortened) run — the reproduction of the behaviour sketched in
// the paper's Figure 2. What Run would refuse comes back as the error's text.
func TraceGantt(opt Options, scheduler string, columns int) string {
	if opt.Workload == nil {
		return noWorkloadMsg
	}
	opt = opt.withDefaults()
	short := opt.Workload.Clone()
	if short.CallsPerBootstrap > 40 {
		short.CallsPerBootstrap = 40
	}
	opt.Workload = short
	tl := trace.New()
	opt.Trace = tl.Record

	res, err := Run(scheduler, opt)
	if err != nil {
		return err.Error()
	}
	header := fmt.Sprintf("activity chart (%s, %d bootstraps shortened to %d off-loads each):\n",
		res.Scheduler, opt.Bootstraps, short.CallsPerBootstrap)
	return header + tl.Gantt(columns)
}
