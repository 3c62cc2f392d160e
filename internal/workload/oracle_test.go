package workload

import "cellmg/internal/sim"

// Oracles for the workload model: what a generated process adds up to, read
// only by the tests that hold the generator to the paper's profile.

// OffloadCalls returns the number of off-loadable invocations in the process.
func (p *Process) OffloadCalls() int {
	n := 0
	for _, s := range p.Steps {
		if s.Kind == OffloadCall {
			n++
		}
	}
	return n
}

// TotalPPETime returns the sum of all PPE burst durations.
func (p *Process) TotalPPETime() sim.Duration {
	var d sim.Duration
	for _, s := range p.Steps {
		if s.Kind == PPECompute {
			d += s.Duration
		}
	}
	return d
}

// TotalSPETime returns the sum of the optimized serial SPE durations of all
// off-loadable calls (i.e. the work an EDTLP schedule places on SPEs).
func (p *Process) TotalSPETime() sim.Duration {
	var d sim.Duration
	for _, s := range p.Steps {
		if s.Kind == OffloadCall {
			d += sim.Duration(float64(s.Fn.SPETime) * s.Scale)
		}
	}
	return d
}

// SPECoverage returns the fraction of a bootstrap's sequential time spent in
// off-loadable functions (≈0.90 for RAxML on 42_SC).
func (c *Config) SPECoverage() float64 {
	spe := float64(c.MeanSPETime())
	return spe / (spe + float64(c.MeanPPEGap))
}

// synthetic builds a single-function, jitter-free, unscaled workload: the
// generator's output is then exactly calls × the nominal durations.
func synthetic(name string, speTime, ppeGap sim.Duration, loopFraction float64, iterations, calls int) *Config {
	fn := &FunctionSpec{
		Class:            Newview,
		Name:             name + "-kernel",
		SPETime:          speTime,
		NaiveSPETime:     speTime * 2,
		PPETime:          sim.Duration(float64(speTime) * 1.4),
		LoopIterations:   iterations,
		LoopFraction:     loopFraction,
		ReducePerWorker:  300 * sim.Nanosecond,
		WorkerInputBytes: 2 * 1024,
		InputBytes:       8 * 1024,
		OutputBytes:      4 * 1024,
		CodeSize:         64 * 1024,
	}
	return &Config{
		Name:                  name,
		Functions:             []*FunctionSpec{fn},
		Mix:                   []float64{1},
		MeanPPEGap:            ppeGap,
		CallsPerBootstrap:     calls,
		RealCallsPerBootstrap: calls,
		Seed:                  1,
		ModuleCodeSize:        fn.CodeSize,
	}
}
