package cellsim

import "cellmg/internal/sim"

// CostModel gathers every hardware constant used by the machine model.
// The zero value is not useful; obtain a baseline with DefaultCostModel and
// override individual fields for ablations.
type CostModel struct {
	// --- PPE ---

	// PPEContexts is the number of SMT hardware contexts per PPE (2 on Cell).
	PPEContexts int
	// SMTContention is the factor by which PPE computation slows down when
	// more than one SMT context is computing simultaneously. The paper cites
	// "contention between MPI processes sharing the SMT pipeline of the PPE"
	// as one of the three sources of overhead in Table 1.
	SMTContention float64
	// ContextSwitch is the cost of a voluntary user-level context switch on
	// the PPE. The paper measures 1.5 us per switch (Section 5.2).
	ContextSwitch sim.Duration
	// KernelQuantum is the time quantum of the native OS scheduler used by
	// the Linux baseline. The paper quotes "a multiple of 10 ms"; we use the
	// base quantum.
	KernelQuantum sim.Duration
	// KernelSwitch is the cost of an involuntary kernel-level context switch
	// (somewhat higher than the user-level switch because of cache and TLB
	// pollution across address spaces).
	KernelSwitch sim.Duration
	// ResumePenalty is the indirect cost an MPI process pays each time the
	// user-level scheduler resumes it on a PPE context after it was switched
	// out, when more processes than hardware contexts are multiplexed: cold
	// caches and TLBs after running other address spaces, plus the
	// scheduler's own dispatch work (completion-mailbox polling, run-queue
	// manipulation). The paper lists exactly these "implicit costs following
	// context-switching across address spaces, such as cache and TLB
	// pollution" as the price of oversubscribing the PPE; the default value
	// is calibrated so that the EDTLP column of Table 1 grows from 28.5 s at
	// one worker to the low-40s at eight workers, as measured.
	ResumePenalty sim.Duration

	// --- Communication ---

	// PPEToSPESignal is the one-way latency of signalling an SPE from the
	// PPE (mailbox write plus SPE-side pickup); t_comm in the paper's
	// granularity test.
	PPEToSPESignal sim.Duration
	// SPEToPPESignal is the one-way latency of returning a completion
	// notification or small result from an SPE to the PPE.
	SPEToPPESignal sim.Duration
	// SPEToSPESignal is the latency of delivering a small (<= 128 byte)
	// Pass-structure DMA put from one SPE's local store to another's.
	SPEToSPESignal sim.Duration

	// --- DMA / EIB ---

	// DMAStartup is the fixed software+hardware overhead of issuing one DMA
	// request from an MFC.
	DMAStartup sim.Duration
	// DMABandwidth is the sustained per-SPE transfer bandwidth in bytes per
	// nanosecond (25.6 GB/s peak per SPE; we default to a sustained value).
	DMABandwidth float64
	// DMAChunk is the architectural maximum size of a single DMA transfer
	// (16 KB); larger transfers are split into DMA-list elements.
	DMAChunk int
	// EIBConcurrentTransfers bounds how many DMA transfers the Element
	// Interconnect Bus services simultaneously before queueing.
	EIBConcurrentTransfers int

	// --- SPE ---

	// LocalStoreSize is the capacity of an SPE local store in bytes (256 KB).
	LocalStoreSize int
	// SPEKernelStartup is the fixed cost of dispatching one off-loaded
	// function invocation on an SPE once its code is resident (argument
	// unpacking, branch to the kernel).
	SPEKernelStartup sim.Duration
}

// DefaultCostModel returns the calibrated baseline used throughout the
// experiments. Durations quoted in the paper are used directly; the
// remaining constants come from the public Cell BE documentation referenced
// in the paper (Kistler et al. for DMA latencies, the Cell BE Handbook for
// bandwidths and capacities).
func DefaultCostModel() *CostModel {
	return &CostModel{
		PPEContexts:   2,
		SMTContention: 1.45,
		ContextSwitch: 1500 * sim.Nanosecond, // 1.5 us, Section 5.2
		KernelQuantum: 10 * sim.Millisecond,  // Section 5.2
		KernelSwitch:  3 * sim.Microsecond,
		ResumePenalty: 20 * sim.Microsecond, // calibrated against Table 1 (EDTLP column)

		PPEToSPESignal: 300 * sim.Nanosecond,
		SPEToPPESignal: 300 * sim.Nanosecond,
		SPEToSPESignal: 200 * sim.Nanosecond,

		DMAStartup:             250 * sim.Nanosecond,
		DMABandwidth:           20.0, // bytes/ns ~= 20 GB/s sustained
		DMAChunk:               16 * 1024,
		EIBConcurrentTransfers: 16,

		LocalStoreSize:   256 * 1024,
		SPEKernelStartup: 500 * sim.Nanosecond,
	}
}

// Clone returns a deep copy of the cost model so experiments can perturb
// parameters without affecting the caller's baseline.
func (c *CostModel) Clone() *CostModel {
	cp := *c
	return &cp
}

// DMATime returns the time an MFC needs to move size bytes between local
// store and main memory, accounting for the 16 KB transfer granularity:
// every chunk pays the DMA start-up cost, and the payload moves at
// DMABandwidth.
func (c *CostModel) DMATime(size int) sim.Duration {
	if size <= 0 {
		return 0
	}
	chunks := (size + c.DMAChunk - 1) / c.DMAChunk
	transfer := sim.Duration(float64(size) / c.DMABandwidth)
	return sim.Duration(chunks)*c.DMAStartup + transfer
}

// RoundTripSignal is 2*t_comm: the cost of telling an SPE to start and being
// told it finished, as used in the EDTLP granularity test.
func (c *CostModel) RoundTripSignal() sim.Duration {
	return c.PPEToSPESignal + c.SPEToPPESignal
}
