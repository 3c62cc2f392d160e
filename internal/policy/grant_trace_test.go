package policy

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// granter is the decision → grant cycle as a scheduler drives it.
type granter interface {
	decision() Decision
	acquire(proc int) ([]int, bool)
	release(group []int)
	// depart reports the window evaluation (U, decision, changed) when the
	// departure closed one.
	depart(proc, waiting int) (u int, d Decision, changed, closed bool)
	counts() (evaluations, switches int)
}

// poolGranter drives a Pool.
type poolGranter struct{ p *Pool }

func (g poolGranter) decision() Decision             { return g.p.Decision() }
func (g poolGranter) acquire(proc int) ([]int, bool) { return g.p.Acquire(proc, nil) }
func (g poolGranter) release(group []int)            { g.p.Release(group) }
func (g poolGranter) counts() (int, int)             { return g.p.Counts() }
func (g poolGranter) depart(proc, waiting int) (int, Decision, bool, bool) {
	ev, closed := g.p.Depart(proc, waiting)
	return ev.U, ev.Decision, ev.Changed, closed
}

// grantScript drives g through a scripted life of a pool of 8 SPEs and
// returns one line per grant, wait, window evaluation and phase boundary.
// A process is active from the moment it asks for SPEs until its off-load
// has departed; a departure reports active+1 waiting tasks (the count the
// native runtime passes: everyone in flight or queued, plus the stream that
// just finished). After every release the queued processes ask again in
// arrival order, which is where a decision that changed while they waited
// shows.
//
// Phases: a lone process; two processes in lock-step; eight processes
// arriving at once (the pool runs dry and waiters are served as SPEs come
// back, across whatever the decision has become); ten arriving at once; and a
// seeded random interleaving of twelve.
func grantScript(g granter) []string {
	var log []string
	rec := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	const procs = 12
	var held [procs][]int
	var queued []int
	active := 0

	try := func(p int) {
		group, ok := g.acquire(p)
		if !ok {
			queued = append(queued, p)
			rec("p%d waits under %v", p, g.decision())
			return
		}
		held[p] = group
		rec("p%d granted %v under %v", p, group, g.decision())
	}
	start := func(p int) {
		active++
		try(p)
	}
	finish := func(p int) {
		g.release(held[p])
		held[p] = nil
		active--
		if u, d, changed, closed := g.depart(p, active+1); closed {
			rec("p%d departs, window closes: U=%d -> %v changed=%v", p, u, d, changed)
		}
		again := queued
		queued = nil
		for _, q := range again {
			try(q)
		}
	}
	drain := func() {
		for active > 0 {
			for p := range held {
				if held[p] != nil {
					finish(p)
				}
			}
		}
	}
	phase := func(name string) {
		evals, switches := g.counts()
		rec("== %s: decision %v, %d evaluations, %d switches", name, g.decision(), evals, switches)
	}

	phase("lone process")
	for i := 0; i < 20; i++ {
		start(0)
		finish(0)
	}
	phase("two processes")
	for i := 0; i < 12; i++ {
		start(1)
		start(2)
		finish(1)
		finish(2)
	}
	phase("eight processes")
	for i := 0; i < 3; i++ {
		for p := 0; p < 8; p++ {
			start(p)
		}
		drain()
	}
	phase("ten processes")
	for p := 0; p < 10; p++ {
		start(p)
	}
	drain()
	phase("random interleaving")
	rng := rand.New(rand.NewSource(2007))
	isQueued := func(p int) bool {
		for _, q := range queued {
			if q == p {
				return true
			}
		}
		return false
	}
	for i := 0; i < 600; i++ {
		// The population breathes between 2 and 12 processes so that windows
		// close on both sides of the threshold.
		p := rng.Intn(2 + (i/60)%6*2)
		switch {
		case held[p] != nil:
			finish(p)
		case !isQueued(p):
			start(p)
		}
	}
	drain()
	phase("end")
	return log
}

// TestGrantTraceMatchesParent holds Pool to testdata/grant_trace.txt: the
// output of grantScript, for EDTLP, static EDTLP-LLP(4) and MGPS on 8 SPEs,
// from the commit where sched's acquireSPEs and native's OffloadContext each
// still spelled the cycle out over an SPEAllocator, an MGPS and a static
// Decision. The granter that wrote it made their calls in their order:
// decision = mgps.Current() or the static one; want = 1, or SPEsPerLoop
// capped at the allocator's size under LLP; AcquireOne for want <= 1, else
// AcquireGroup(want); RecordOffload(proc, group[0]) after a successful claim;
// ReleaseGroup; RecordCompletion(proc, waiting), with "a window closed" read
// off a change in Evaluations() and U off LastU(). Do not regenerate the
// file to make a change pass.
func TestGrantTraceMatchesParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/grant_trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, c := range []struct {
		name string
		pool *Pool
	}{
		{"fixed EDTLP", NewFixedPool(8, Decision{SPEsPerLoop: 1})},
		{"fixed LLP(4)", NewFixedPool(8, StaticLLPDecision(4))},
		{"adaptive", NewAdaptivePool(8, MGPSConfig{})},
	} {
		got = append(got, "#### "+c.name)
		got = append(got, grantScript(poolGranter{c.pool})...)
	}
	// The loop-grain lines, appended when Pool gained AcquireMaster and Borrow
	// (the 1,614 lines above are the parent's, untouched): loopScript on the
	// benchmark's two workers and on a Cell's eight, adaptive and static.
	for _, c := range []struct {
		name string
		pool *Pool
	}{
		{"loop grain, adaptive, 2 SPEs", NewAdaptivePool(2, MGPSConfig{})},
		{"loop grain, adaptive, 8 SPEs", NewAdaptivePool(8, MGPSConfig{})},
		{"loop grain, fixed LLP(4), 8 SPEs", NewFixedPool(8, StaticLLPDecision(4))},
	} {
		got = append(got, "#### "+c.name)
		got = append(got, loopScript(c.pool)...)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q, parent wrote %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines, parent wrote %d", len(got), len(want))
	}
}
