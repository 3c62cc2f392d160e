// Package trace collects activity intervals emitted by the machine models and
// turns them into per-component utilization timelines and text Gantt charts.
// It is how cmd/mgps-sim visualizes what each SPE and the PPE were doing
// under a given scheduler — the visual counterpart of the paper's Figure 2.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"cellmg/internal/sim"
)

// Interval is one span of activity on one component.
type Interval struct {
	Component string
	Start     sim.Time
	End       sim.Time
	Kind      string
}

// Duration returns the interval length.
func (iv Interval) Duration() sim.Duration { return iv.End.Sub(iv.Start) }

// Timeline accumulates intervals, typically by being attached to a
// cellsim.Machine's Trace hook.
type Timeline struct {
	intervals []Interval
}

// New creates an empty timeline.
func New() *Timeline { return &Timeline{} }

// Record appends one interval. It has the signature of cellsim.TraceFunc so a
// timeline can be attached directly: machine.Trace = tl.Record.
func (t *Timeline) Record(component string, start, end sim.Time, kind string) {
	if end <= start {
		return
	}
	t.intervals = append(t.intervals, Interval{Component: component, Start: start, End: end, Kind: kind})
}

// Len returns the number of recorded intervals.
func (t *Timeline) Len() int { return len(t.intervals) }

// Components returns the distinct component names, sorted.
func (t *Timeline) Components() []string {
	seen := map[string]bool{}
	for _, iv := range t.intervals {
		seen[iv.Component] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// End returns the latest interval end (the observed makespan).
func (t *Timeline) End() sim.Time {
	var end sim.Time
	for _, iv := range t.intervals {
		if iv.End > end {
			end = iv.End
		}
	}
	return end
}

// BusyTime returns the total busy time of a component (intervals do not
// overlap for a single SPE, and PPE intervals are reported per context, so a
// straight sum is correct for SPEs and an upper bound for the PPE lane).
func (t *Timeline) BusyTime(component string) sim.Duration {
	var d sim.Duration
	for _, iv := range t.intervals {
		if iv.Component == component {
			d += iv.Duration()
		}
	}
	return d
}

// Utilization returns BusyTime(component) divided by the timeline's end.
func (t *Timeline) Utilization(component string) float64 {
	end := t.End()
	if end == 0 {
		return 0
	}
	return float64(t.BusyTime(component)) / float64(end)
}

// Gantt renders an ASCII Gantt chart with the given number of columns.
// Each row is one component; a column is marked '#' if the component was busy
// for more than half of that column's time span, '+' if busy at all, and '.'
// if idle.
func (t *Timeline) Gantt(columns int) string {
	if columns <= 0 {
		columns = 80
	}
	end := t.End()
	if end == 0 {
		return "(empty timeline)\n"
	}
	comps := t.Components()
	width := 0
	for _, c := range comps {
		if len(c) > width {
			width = len(c)
		}
	}
	colDur := float64(end) / float64(columns)
	var b strings.Builder
	// A chart narrower than the printed makespan gets no header padding.
	pad := max(0, columns-len(fmt.Sprint(end)))
	fmt.Fprintf(&b, "%-*s  0%s%v\n", width, "component", strings.Repeat(" ", pad), end)
	for _, c := range comps {
		busy := make([]float64, columns)
		for _, iv := range t.intervals {
			if iv.Component != c {
				continue
			}
			first := int(float64(iv.Start) / colDur)
			last := int(float64(iv.End) / colDur)
			if last >= columns {
				last = columns - 1
			}
			for col := first; col <= last; col++ {
				cs := float64(col) * colDur
				ce := cs + colDur
				s := float64(iv.Start)
				e := float64(iv.End)
				if s < cs {
					s = cs
				}
				if e > ce {
					e = ce
				}
				if e > s {
					busy[col] += e - s
				}
			}
		}
		fmt.Fprintf(&b, "%-*s  ", width, c)
		for _, occ := range busy {
			frac := occ / colDur
			switch {
			case frac > 0.5:
				b.WriteByte('#')
			case frac > 0:
				b.WriteByte('+')
			default:
				b.WriteByte('.')
			}
		}
		fmt.Fprintf(&b, "  %5.1f%%\n", 100*t.Utilization(c))
	}
	return b.String()
}
