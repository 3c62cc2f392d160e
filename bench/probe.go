package main

import (
	"time"
)

// The host probe. On the shared 2-thread host this benchmark was sized on,
// the speed at which a hardware thread executes this process changes by up
// to 1.8x from one second to the next (a neighbour on the sibling thread, or
// turbo coming and going), and every CPU-bound time changes with it: between
// runs of one commit the median operation time moved by 25-33%, more than
// any bound BENCHMARK.json may set. The state shows in a fixed
// floating-point loop just as it does in the workloads, so operation times
// are scaled by the loop's time measured around them, to what they would
// have been at one reference speed. A change that makes an operation 10%
// slower still moves its scaled time by 10%. Reports keep the raw medians.

// probeRefMS is the reference speed: about what hostProbe takes on the
// development host in its slow state.
const probeRefMS = 14.0

// probeReps is the length of the full probe; the background sampler uses a
// fifth of it.
const probeReps = 2000

var probeSink float64

// hostProbe times the fixed loop, in milliseconds, scaled to probeReps
// repetitions.
func hostProbe(reps int) float64 {
	var a [8192]float64 // 64 KiB: cache-resident
	for i := range a {
		a[i] = float64(i%7) + 0.5
	}
	t0 := time.Now()
	s := 0.0
	for r := 0; r < reps; r++ {
		for i := 0; i+4 <= len(a); i += 4 {
			s += a[i]*0.3 + a[i+1]*0.2 + a[i+2]*0.4 + a[i+3]*0.1
			a[i] = s * 1e-9
		}
	}
	probeSink = s
	return float64(time.Since(t0)) / 1e6 * probeReps / float64(reps)
}

// hostSampler probes in the background, a short probe every 40 ms (about 6%
// of one hardware thread), for operations too short and too many to probe
// around one by one.
type hostSampler struct {
	stop, done chan struct{}
	at         []time.Time
	ms         []float64
}

func startHostSampler() *hostSampler {
	h := &hostSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		for {
			select {
			case <-h.stop:
				return
			default:
			}
			ms := hostProbe(probeReps / 5)
			h.at = append(h.at, time.Now())
			h.ms = append(h.ms, ms)
			time.Sleep(40 * time.Millisecond)
		}
	}()
	return h
}

// finish stops the sampler; its samples may be read afterwards.
func (h *hostSampler) finish() {
	close(h.stop)
	<-h.done
}

// around is the mean probe time over the samples taken from 60 ms before
// from to 60 ms after to (every sample, if none fell in between).
func (h *hostSampler) around(from, to time.Time) float64 {
	lo, hi := from.Add(-60*time.Millisecond), to.Add(60*time.Millisecond)
	var near []float64
	for i, at := range h.at {
		if at.After(lo) && at.Before(hi) {
			near = append(near, h.ms[i])
		}
	}
	if len(near) == 0 {
		near = h.ms
	}
	return mean(near)
}
