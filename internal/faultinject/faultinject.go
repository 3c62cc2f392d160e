// Package faultinject is a deterministic fault plan for crash-recovery
// testing: a set of rules consulted at named injection sites (WAL record
// append, fsync) that can return errors, stall, truncate a write mid-frame,
// or simulate a process kill. Production code paths hold a nil *Injector,
// which every method treats as "no faults"; only tests construct one.
//
// Determinism is the point: a rule fires on the Nth matching hit of its
// site, not on a timer or a random draw, so a crash-recovery property test
// ("kill at the first checkpoint record, restart, replay") replays the exact
// same fault schedule on every run and under -race.
//
// The kill model is "dead mode": once a Kill rule fires, every subsequent
// operation at every site reports dead and the caller is expected to discard
// the write silently — exactly the observable behaviour of a process that
// was SIGKILLed at that point, from the standpoint of what lands on disk.
// The in-memory process conveniently keeps running so the test can then
// reopen the directory and assert on recovery; the CI smoke test covers the
// real kill -9.
package faultinject

import (
	"sync"
	"time"
)

// Op names an injection site.
type Op string

const (
	// OpWALAppend is consulted once per WAL record append; the tag is the
	// record type name (e.g. "checkpoint", "task_done").
	OpWALAppend Op = "wal.append"
	// OpWALSync is consulted once per fsync batch; the tag is empty.
	OpWALSync Op = "wal.sync"
)

// Action is what happens when a rule fires. Fields compose: a Stall sleeps
// first, then Err is returned (if set), then Kill switches the injector to
// dead mode. TornBytes only applies to write sites: the caller writes that
// many bytes of the frame before going dead (a torn tail for replay to
// tolerate); it implies Kill.
type Action struct {
	Err       error
	Stall     time.Duration
	Kill      bool
	TornBytes int
}

// Rule arms one action at one site. Tag "" matches any tag; After skips that
// many matching hits first (After 0 fires on the first match). Each rule
// fires at most once.
type Rule struct {
	Op     Op
	Tag    string
	After  int
	Action Action
}

// Injector is a deterministic fault plan. The zero value and the nil pointer
// inject nothing.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	fired []bool
	seen  []int
	dead  bool
}

// New builds an injector armed with the given rules.
func New(rules ...Rule) *Injector {
	return &Injector{
		rules: rules,
		fired: make([]bool, len(rules)),
		seen:  make([]int, len(rules)),
	}
}

// At consults the plan at a site. It returns the action to apply (zero if no
// rule fires) and whether the injector is in dead mode — when dead is true
// the caller must behave as if the process no longer exists: discard the
// write, skip the sync, report nothing.
func (in *Injector) At(op Op, tag string) (act Action, dead bool) {
	if in == nil {
		return Action{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return Action{}, true
	}
	for i := range in.rules {
		r := &in.rules[i]
		if in.fired[i] || r.Op != op || (r.Tag != "" && r.Tag != tag) {
			continue
		}
		if in.seen[i] < r.After {
			in.seen[i]++
			continue
		}
		in.fired[i] = true
		if r.Action.Kill || r.Action.TornBytes > 0 {
			in.dead = true
		}
		return r.Action, false
	}
	return Action{}, false
}

// Fired reports whether rule i (in New's argument order) has fired — what a
// test waits on before acting "while the stall holds" instead of sleeping.
func (in *Injector) Fired(i int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[i]
}

// Dead reports whether a Kill (or torn write) has fired.
func (in *Injector) Dead() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

// Kill switches to dead mode directly, without a rule.
func (in *Injector) Kill() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.dead = true
	in.mu.Unlock()
}
