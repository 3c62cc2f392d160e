// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine advances a virtual clock and executes simulated processes of one
// kind, a state machine (Spawn): the engine calls its step function when it
// starts and at every wake-up, and the function keeps its own state from call
// to call. Each primitive succeeds now and reports true, or parks the process
// and reports false, and the step function then returns: Sleep,
// Queue.TryGet, Resource.TryAcquire, Signal.Await and Condition.Await (beside
// Put, Release, Fire/FireAfter and Notify, which never wait, and Rearm, with
// which a signal's owner makes a fired signal unfired to use it again instead
// of allocating another). A woken process
// carries on where it parked, by each primitive's rule (see its comment). A
// call that returns without parking ends the process. Only one of engine and
// processes executes at any instant, no goroutine is started, and neither
// process code nor the primitives need host-level synchronization.
//
// There are two kinds of event: the wake-up of a process (the engine calls its
// step function) and the firing of a signal scheduled by FireAfter (the
// engine fires it inline, which queues a wake-up for each waiter). That is the
// whole kernel: no event that runs anything but a process or a signal, no
// event that can be withdrawn, no wait that gives up, no value carried by a
// wake-up. Events scheduled for the same virtual time are dispatched in FIFO
// order of their creation, and all waiter queues are FIFO, so a simulation
// given the same inputs always produces exactly the same schedule.
//
// One wake-up never reaches the event queue. When a process calls Sleep and
// nothing is queued at or before the time it asks for (and that time is
// within RunUntil's limit), its own wake-up is necessarily the next event the
// engine would dispatch: the clock is advanced in place, the sequence number
// the event would have taken is spent, and Sleep reports true. An event
// already queued for that same instant was created earlier and must go first,
// so then the wake-up is queued like any other — the shortcut changes what
// the host does, never the order of the simulation.
//
// A process that waits forever by design (a server parked on an empty Queue)
// holds only its state; Engine.Close ends every such process and drops the
// event queue. A panic in a step function surfaces in the caller of Run.
//
// The package is the substrate for the Cell Broadband Engine machine model in
// package cellsim and the scheduler models in package sched, but it is fully
// generic: nothing in it knows about processors or schedulers.
//
// Typical use — the worker remembers that it has slept, because the engine
// calls it again when the sleep is over:
//
//	eng := sim.NewEngine()
//	defer eng.Close()
//	done := sim.NewSignal(eng)
//	slept := false
//	eng.Spawn("worker", func(p *sim.Proc) {
//		if !slept {
//			slept = true
//			if !p.Sleep(5 * sim.Microsecond) {
//				return // parked: called again at 5us
//			}
//		}
//		done.Fire()
//	})
//	eng.Spawn("waiter", func(p *sim.Proc) {
//		if done.Await(p) { // false and parked at first, true once woken
//			fmt.Println("finished at", p.Now())
//		}
//	})
//	eng.Run()
package sim
