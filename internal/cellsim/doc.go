// Package cellsim models the Cell Broadband Engine as a discrete-event
// system: a blade with one or more Cell processors, each consisting of a
// dual-thread Power Processing Element (PPE), eight Synergistic Processing
// Elements (SPEs) with 256 KB software-managed local stores and Memory Flow
// Controllers (MFCs), and an Element Interconnect Bus (EIB).
//
// The model is intentionally a *scheduling-level* model, not a cycle-accurate
// one. It captures the quantities that determine the behaviour studied in
// Blagojevic et al. (PPoPP 2007): the duration of off-loaded tasks and of the
// PPE code between off-loads, PPE SMT contention, context-switch cost,
// PPE<->SPE signalling latency, DMA start-up latency and bandwidth (with the
// architectural 16 KB transfer granularity), local-store capacity and the
// cost of (re)loading SPE code modules. All constants live in CostModel and
// are calibrated from the figures reported in the paper and the public Cell
// documentation; every one of them can be overridden, which is how the
// ablation experiments sweep them.
//
// Each SPE is one sim step process — a state machine, not a coroutine — that
// executes the programs in its mailbox op by op, so a wake-up of an SPE is a
// call. Whoever builds a Machine closes its engine when the run is over
// (sim.Engine.Close). The model needs five things of the engine and uses
// nothing else: Delay and Sleep (every compute, DMA and switch interval), a
// Queue per SPE (its mailbox of ops), a Resource per PPE and per EIB (SMT
// contexts, concurrent transfers), Signals fired after a latency (completion
// notifications and Pass structures carry no payload here — the off-load
// runtime knows what it sent) and, one layer up, the Condition schedulers
// wait on for free SPEs.
//
// Every interval a component counts as busy goes through one place per
// component kind (PPE.charge; SPE.occupy), which delays, accounts and reports
// it to Machine.Trace, so a traced lane sums to the component's BusyTime.
// Component names ("cellC.speS", "cellC.ppe") are built once per component;
// with Machine.Trace unset an activity interval costs nothing beyond its
// Delay.
//
// The hardware substrate exposed here is policy-free: packages offload and
// sched implement the off-load runtime and the EDTLP/LLP/MGPS schedulers on
// top of it.
package cellsim
