// Package policy contains the scheduling decision logic of the paper as pure,
// substrate-independent code. Pool is the whole of it for one set of SPEs:
// which SPEs are free, the parallelization mode in force (fixed for EDTLP and
// static EDTLP-LLP, chosen by the MGPS controller otherwise), how many SPEs
// the next off-load is therefore granted, and the window of off-load
// departures from which MGPS sizes the grants after it.
//
// Nothing in this package knows about the simulator or about goroutines: the
// simulated Cell schedulers in package sched (one Pool per Cell) and the
// native Go runtime in package native (one Pool per runtime) drive the same
// type through the same three calls — Acquire, Release, Depart. What stays
// with the substrate is what only it can do: waiting (a sim.Condition there,
// a sync.Cond here) until Acquire succeeds, and mutual exclusion — a Pool is
// not safe for concurrent use, so native calls it under its lock while the
// simulator, where one process runs at a time, needs none. This mirrors the
// paper's structure, where the contribution is the policy, not the substrate.
package policy

import "fmt"

// Decision is the parallelization mode MGPS selects for the next scheduling
// window.
type Decision struct {
	// UseLLP indicates whether off-loaded tasks should have their parallel
	// loops work-shared across SPEs.
	UseLLP bool
	// SPEsPerLoop is the total number of SPEs (master + workers) assigned to
	// each parallel loop when UseLLP is set; it is ⌊numSPEs/T⌋ for T tasks
	// wanting SPEs, never below 1.
	SPEsPerLoop int
}

func (d Decision) String() string {
	if !d.UseLLP {
		return "EDTLP"
	}
	return fmt.Sprintf("EDTLP-LLP(%d SPEs/loop)", d.SPEsPerLoop)
}

// MGPSConfig parameterizes the adaptive controller.
type MGPSConfig struct {
	// NumSPEs is the number of SPEs the controller manages (8 per Cell).
	NumSPEs int
	// Window is the number of task completions between re-evaluations of the
	// policy; the paper uses a history length equal to the number of SPEs.
	Window int
	// UThreshold is the utilization-history threshold: LLP is activated when
	// the observed degree of task-level parallelism U is at or below it. The
	// paper uses half the SPEs (4).
	UThreshold int
}

// DefaultMGPSConfig returns the paper's parameterization for a machine with
// numSPEs SPEs: window = numSPEs, threshold = numSPEs/2.
func DefaultMGPSConfig(numSPEs int) MGPSConfig {
	return MGPSConfig{NumSPEs: numSPEs, Window: numSPEs, UThreshold: numSPEs / 2}
}

// MGPS is the multigrain parallelism scheduling controller (Section 5.4).
// It observes off-load completions ("departures") and, every Window
// departures, measures the degree of task-level parallelism U — how many
// distinct processes off-loaded tasks during the window — and decides whether
// to expose loop-level parallelism and with how many SPEs per loop.
//
// The controller is conservative at start-up: it begins in EDTLP mode,
// assigning one SPE per off-loaded task, exactly as the paper describes.
type MGPS struct {
	cfg MGPSConfig

	completions   int
	procsInWindow map[int]struct{}
	current       Decision
	evaluations   int
	switches      int
}

// Evaluation is what MGPS measured and decided when a window of departures
// closed.
type Evaluation struct {
	// U is the degree of task-level parallelism the window showed: how many
	// distinct processes off-loaded during it.
	U int
	// Decision is in force from this departure on.
	Decision Decision
	// Changed reports whether Decision differs from the one it replaces.
	Changed bool
}

// NewMGPS creates a controller with the given configuration. Zero or negative
// Window and UThreshold fall back to the paper's defaults for NumSPEs.
func NewMGPS(cfg MGPSConfig) *MGPS {
	if cfg.NumSPEs <= 0 {
		panic("policy: MGPS needs at least one SPE")
	}
	if cfg.Window <= 0 {
		cfg.Window = cfg.NumSPEs
	}
	if cfg.UThreshold <= 0 {
		cfg.UThreshold = cfg.NumSPEs / 2
	}
	return &MGPS{
		cfg:           cfg,
		procsInWindow: make(map[int]struct{}),
		current:       Decision{UseLLP: false, SPEsPerLoop: 1},
	}
}

// Config returns the controller's configuration.
func (m *MGPS) Config() MGPSConfig { return m.cfg }

// Current returns the decision in force.
func (m *MGPS) Current() Decision { return m.current }

// Evaluations returns how many windows have been evaluated.
func (m *MGPS) Evaluations() int { return m.evaluations }

// Switches returns how many times the decision changed.
func (m *MGPS) Switches() int { return m.switches }

// RecordOffload notes that process procID off-loaded a task ("arrival" in the
// paper's terminology).
func (m *MGPS) RecordOffload(procID int) { m.procsInWindow[procID] = struct{}{} }

// RecordDeparture notes that an off-loaded task of process procID finished.
// waitingTasks is the number of tasks currently wanting SPEs (processes with
// an off-load in flight or about to issue one). Every Window departures the
// window closes: the second result is true and the first is its evaluation;
// in between the decision in force stands and the results are zero.
func (m *MGPS) RecordDeparture(procID int, waitingTasks int) (Evaluation, bool) {
	m.procsInWindow[procID] = struct{}{}
	m.completions++
	if m.completions%m.cfg.Window != 0 {
		return Evaluation{}, false
	}
	m.evaluations++
	u := len(m.procsInWindow)
	prev := m.current
	m.current = Decision{UseLLP: false, SPEsPerLoop: 1}
	if u <= m.cfg.UThreshold {
		per := m.cfg.NumSPEs / max(waitingTasks, 1)
		if per > 1 {
			m.current = Decision{UseLLP: true, SPEsPerLoop: per}
		}
	}
	clear(m.procsInWindow)
	changed := m.current != prev
	if changed {
		m.switches++
	}
	return Evaluation{U: u, Decision: m.current, Changed: changed}, true
}

// StaticLLPDecision returns the decision used by the static EDTLP-LLP
// schedulers of Figure 7: a fixed number of SPEs per parallel loop.
func StaticLLPDecision(spesPerLoop int) Decision {
	if spesPerLoop <= 1 {
		return Decision{UseLLP: false, SPEsPerLoop: 1}
	}
	return Decision{UseLLP: true, SPEsPerLoop: spesPerLoop}
}
