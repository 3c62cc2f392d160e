// Package hostsim models the conventional SMT/multicore machines the paper
// compares the Cell against in Section 5.6 / Figure 10: a dual-processor
// Intel Xeon system with Hyper-Threading and an IBM Power5 (dual-core,
// two SMT threads per core).
//
// RAxML's bootstrap workload is embarrassingly parallel, so on these machines
// performance is governed by (a) the single-thread time of one bootstrap,
// (b) how many hardware contexts exist, and (c) how much co-scheduled
// siblings on one core slow each other down (SMT contention). The model
// schedules identical bootstraps onto hardware contexts in waves, stretching
// co-resident jobs by the core's SMT contention factor — the same first-order
// model used for the PPE in package cellsim.
//
// The single-thread bootstrap times are calibrated from Figure 10 and the
// architectural ratios discussed in the paper; the calibration is documented
// on each constructor.
package hostsim

import (
	"fmt"
)

// Machine describes a conventional shared-memory machine running the MPI
// version of RAxML.
type Machine struct {
	// Name identifies the machine in reports.
	Name string
	// Sockets, CoresPerSocket and ThreadsPerCore define the topology.
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// BootstrapSeconds is the single-thread execution time of one bootstrap
	// of the 42_SC workload on this machine.
	BootstrapSeconds float64
	// SMTContention is the slow-down factor applied to a job when all SMT
	// siblings on its core are busy. Intermediate occupancies interpolate
	// linearly between 1 and this factor.
	SMTContention float64
	// MemoryContention is a mild additional slow-down applied when every
	// core of the machine is busy (shared cache / memory bandwidth).
	MemoryContention float64
}

// Contexts returns the total number of hardware threads.
func (m *Machine) Contexts() int { return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore }

// Cores returns the total number of cores.
func (m *Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// Validate checks the machine description.
func (m *Machine) Validate() error {
	if m.Sockets <= 0 || m.CoresPerSocket <= 0 || m.ThreadsPerCore <= 0 {
		return fmt.Errorf("hostsim %s: topology must be positive", m.Name)
	}
	if m.BootstrapSeconds <= 0 {
		return fmt.Errorf("hostsim %s: bootstrap time must be positive", m.Name)
	}
	if m.SMTContention < 1 || m.MemoryContention < 1 {
		return fmt.Errorf("hostsim %s: contention factors must be >= 1", m.Name)
	}
	return nil
}

// contentionFactor returns the slow-down of one job when busyOnCore jobs
// occupy its core and totalBusy jobs occupy the machine.
func (m *Machine) contentionFactor(busyOnCore, totalBusy int) float64 {
	f := 1.0
	if m.ThreadsPerCore > 1 && busyOnCore > 1 {
		// Linear interpolation between 1 (alone) and SMTContention (full),
		// the product rounded so that no architecture fuses it into the sum.
		frac := float64(busyOnCore-1) / float64(m.ThreadsPerCore-1)
		f *= 1 + float64(frac*(m.SMTContention-1))
	}
	if totalBusy >= m.Cores() && m.MemoryContention > 1 {
		f *= m.MemoryContention
	}
	return f
}

// RunBootstraps returns the wall-clock seconds needed to complete n identical
// bootstraps with the MPI master-worker scheme: jobs are placed onto hardware
// contexts (spreading across cores before doubling up on SMT siblings), run
// in waves, and each wave's duration is the slowest job in it.
func (m *Machine) RunBootstraps(n int) float64 {
	if n <= 0 {
		return 0
	}
	contexts := m.Contexts()
	total := 0.0
	remaining := n
	for remaining > 0 {
		wave := remaining
		if wave > contexts {
			wave = contexts
		}
		total += m.waveTime(wave)
		remaining -= wave
	}
	return total
}

// waveTime returns the duration of one wave with `jobs` concurrently running
// bootstraps (jobs <= Contexts()).
func (m *Machine) waveTime(jobs int) float64 {
	cores := m.Cores()
	// Spread across cores first, then fill SMT siblings.
	perCore := make([]int, cores)
	for j := 0; j < jobs; j++ {
		perCore[j%cores]++
	}
	worst := 0.0
	for _, busy := range perCore {
		if busy == 0 {
			continue
		}
		f := m.contentionFactor(busy, jobs)
		t := m.BootstrapSeconds * f
		if t > worst {
			worst = t
		}
	}
	return worst
}

// DualXeonHT returns the comparison system of Section 5.6: two Intel Pentium 4
// Xeon processors at 2 GHz with Hyper-Threading (2-way SMT each), i.e. four
// hardware contexts on a 4-way SMP Dell PowerEdge 6650.
//
// Calibration: Figure 10(a) places the Xeon system near 180 s at 16
// bootstraps and Figure 10(b) near 1400 s at 128; with four contexts and
// Pentium 4's notoriously weak Hyper-Threading gains on floating-point code
// (we use a 1.6x co-residence slow-down), that corresponds to a single-thread
// bootstrap time of about 28 s — essentially the same as the optimized
// Cell PPE+SPE pipeline, which matches the observation that one Xeon core and
// one SPE-accelerated bootstrap are comparable.
func DualXeonHT() *Machine {
	return &Machine{
		Name:             "2x Intel Xeon (HT)",
		Sockets:          2,
		CoresPerSocket:   1,
		ThreadsPerCore:   2,
		BootstrapSeconds: 28.0,
		SMTContention:    1.60,
		MemoryContention: 1.0,
	}
}

// Power5 returns the IBM Power5 comparison system of Section 5.6: one
// dual-core processor at 1.6 GHz with two SMT threads per core (four
// contexts, 36 MB of L3).
//
// Calibration: the paper reports that the Cell is 5-10% faster than the
// Power5 once eight or more bootstraps are run, and about on par below that.
// With the Cell completing 128 bootstraps in roughly 690-700 paper-seconds,
// the Power5 must sustain ~0.17 bootstraps/s, which with four contexts and a
// 1.3x SMT co-residence slow-down corresponds to a single-thread bootstrap
// time of about 18 s.
func Power5() *Machine {
	return &Machine{
		Name:             "IBM Power5",
		Sockets:          1,
		CoresPerSocket:   2,
		ThreadsPerCore:   2,
		BootstrapSeconds: 18.0,
		SMTContention:    1.30,
		MemoryContention: 1.0,
	}
}
