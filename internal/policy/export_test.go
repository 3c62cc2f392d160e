package policy

// The MGPS window tests predate Evaluation and read a departure's outcome as
// (decision in force, whether it changed); these two keep them as written.

func (m *MGPS) RecordCompletion(procID, waitingTasks int) (Decision, bool) {
	ev, _ := m.RecordDeparture(procID, waitingTasks)
	return m.current, ev.Changed
}

// U is the degree of task-level parallelism seen so far in the open window.
func (m *MGPS) U() int { return len(m.procsInWindow) }
