// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine advances a virtual clock and executes simulated processes of two
// kinds. A coroutine process (Spawn) is a coroutine of the engine (iter.Pull)
// that runs until it blocks on one of the five primitives — Delay,
// Queue.Put/Get, Resource.Acquire/Release, Signal.Fire/FireAfter/Wait,
// Condition.Wait/Notify — and switches straight back to the engine. A step
// process (SpawnStep) is a state machine with no stack: the engine calls its
// step function, which returns once a non-blocking half — Sleep,
// Queue.TryGet, Resource.TryAcquire, Signal.Await — has parked it. A blocking
// primitive is its half plus a suspend, so both kinds run one implementation
// and wake in one order. Only one of engine and processes executes at any
// instant, on one host thread's worth of CPU, and neither process code nor
// the primitives need host-level synchronization.
//
// There are two kinds of event: the wake-up of a process (the engine switches
// to the coroutine or calls the step function) and the firing of a signal
// scheduled by FireAfter (the engine fires it inline, which queues a wake-up
// for each waiter). That is the whole kernel: it holds what the Cell model
// executes and nothing else — no event that runs anything but a process or a
// signal, no event that can be withdrawn, no wait that gives up, no value
// carried by a wake-up.
// Events scheduled for the same virtual time are dispatched in FIFO order of
// their creation, and all waiter queues are FIFO, so a simulation given the
// same inputs always produces exactly the same schedule.
//
// One wake-up never reaches the event queue. When a process calls Delay (or
// Sleep) and nothing is queued at or before the time it asks for (and that
// time is within RunUntil's limit), its own wake-up is necessarily the next
// event the engine would dispatch: the clock is advanced in place, the
// sequence number the event would have taken is spent, and the process keeps
// running. An event already queued for that same instant was created earlier
// and must go first, so then the wake-up is queued like any other — the
// shortcut changes what the host does, never the order of the simulation.
//
// A coroutine process that waits forever by design (a server looping on
// Queue.Get) pins its stack and the engine; a step process pins only its
// state. Engine.Close stops every such process and drops the event queue;
// call it when the simulation is over. A panic in a process body or step
// function surfaces in the caller of Run.
//
// The package is the substrate for the Cell Broadband Engine machine model in
// package cellsim and the scheduler models in package sched, but it is fully
// generic: nothing in it knows about processors or schedulers.
//
// Typical use:
//
//	eng := sim.NewEngine()
//	defer eng.Close()
//	done := sim.NewSignal(eng)
//	eng.Spawn("worker", func(p *sim.Proc) {
//		p.Delay(5 * sim.Microsecond)
//		done.Fire()
//	})
//	eng.Spawn("waiter", func(p *sim.Proc) {
//		done.Wait(p)
//		fmt.Println("finished at", p.Now())
//	})
//	eng.Run()
package sim
