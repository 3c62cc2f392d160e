package sched

import (
	"fmt"
	"sort"
	"strings"

	"cellmg/internal/sim"
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
	tl := &timeline{}
	opt.Trace = tl.record

	res, err := Run(scheduler, opt)
	if err != nil {
		return err.Error()
	}
	header := fmt.Sprintf("activity chart (%s, %d bootstraps shortened to %d off-loads each):\n",
		res.Scheduler, opt.Bootstraps, short.CallsPerBootstrap)
	return header + tl.gantt(columns)
}

// interval is one span of activity on one component.
type interval struct {
	component  string
	start, end sim.Time
}

// timeline collects the intervals a run reports through its trace hook.
type timeline struct {
	intervals []interval
	end       sim.Time // the latest interval end: the observed makespan
}

// record has the signature of cellsim.TraceFunc. The chart does not tell
// kinds of activity apart, and a zero-length interval would not show on it.
func (t *timeline) record(component string, start, end sim.Time, _ string) {
	if end <= start {
		return
	}
	t.intervals = append(t.intervals, interval{component, start, end})
	t.end = max(t.end, end)
}

// components returns the distinct component names, sorted.
func (t *timeline) components() []string {
	seen := map[string]bool{}
	var out []string
	for _, iv := range t.intervals {
		if !seen[iv.component] {
			seen[iv.component] = true
			out = append(out, iv.component)
		}
	}
	sort.Strings(out)
	return out
}

// gantt renders one row per component (80 columns when columns <= 0). A
// column is marked '#' if the component was busy for more than half of that
// column's time span, '+' if busy at all, and '.' if idle; the row ends with
// the component's busy time as a share of the makespan. PPE intervals are
// reported per hardware context, so a PPE row can read above 100 %.
func (t *timeline) gantt(columns int) string {
	if columns <= 0 {
		columns = 80
	}
	if t.end == 0 {
		return "(empty timeline)\n"
	}
	comps := t.components()
	width := 0
	for _, c := range comps {
		width = max(width, len(c))
	}
	colDur := float64(t.end) / float64(columns)
	var b strings.Builder
	// A chart narrower than the printed makespan gets no header padding.
	pad := max(0, columns-len(fmt.Sprint(t.end)))
	fmt.Fprintf(&b, "%-*s  0%s%v\n", width, "component", strings.Repeat(" ", pad), t.end)
	for _, c := range comps {
		occupied := make([]float64, columns)
		var busy sim.Duration
		for _, iv := range t.intervals {
			if iv.component != c {
				continue
			}
			busy += iv.end.Sub(iv.start)
			s, e := float64(iv.start), float64(iv.end)
			for col := int(s / colDur); col <= min(int(e/colDur), columns-1); col++ {
				cs := float64(float64(col) * colDur) // rounded: never fused with cs+colDur
				if overlap := min(e, cs+colDur) - max(s, cs); overlap > 0 {
					occupied[col] += overlap
				}
			}
		}
		fmt.Fprintf(&b, "%-*s  ", width, c)
		for _, occ := range occupied {
			switch frac := occ / colDur; {
			case frac > 0.5:
				b.WriteByte('#')
			case frac > 0:
				b.WriteByte('+')
			default:
				b.WriteByte('.')
			}
		}
		fmt.Fprintf(&b, "  %5.1f%%\n", 100*(float64(busy)/float64(t.end)))
	}
	return b.String()
}
