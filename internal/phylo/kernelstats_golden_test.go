package phylo

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// kernelStatsGolden pins the work of the three search shapes the per-layer
// benchmarks time (BenchmarkBootstrapSearch, BenchmarkSingleSearch,
// BenchmarkSmallSearch) at one worker: every KernelStats counter summed over
// the shape's tasks, with NNI moves evaluated and accepted and sweeps run.
// RepeatsCopied, always zero, is left out. A change that claims
// "same work" leaves it byte-identical; one that changes work rewrites it in
// its own diff (the failure prints the new text) and says why.
const kernelStatsGolden = "testdata/kernel_stats_golden.txt"

// statsTask is one task of a shape: its alignment (the replicate, for a
// bootstrap), its rates and its search options.
type statsTask struct {
	data  *PatternAlignment
	rates RateCategories
	opts  SearchOptions
}

// statsShapes builds the tasks of each shape the way RunTask does: the
// bootstrap shape's 14 replicates of the 10 × 300 alignment, the one Gamma4
// inference of the 14 × 500 one, and the small search at seeds 0–7.
func statsShapes(t *testing.T) (names []string, shapes [][]statsTask) {
	so := DefaultSimulateOptions()
	so.Taxa, so.Length, so.Seed = 10, 300, 1
	data := simulatedPatterns(t, so)
	var boot []statsTask
	for id := 0; id < 14; id++ {
		rep, err := Bootstrap(data, rand.New(rand.NewSource(DeriveSeed(1, SeedStreamBootstrapWeights, id))))
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultSearchOptions()
		opts.Seed = DeriveSeed(1, SeedStreamBootstrapSearch, id)
		boot = append(boot, statsTask{rep, SingleRate(), opts})
	}

	gamma, err := DiscreteGamma(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	so = DefaultSimulateOptions()
	so.Taxa, so.Length, so.Seed, so.Rates = 14, 500, 2, gamma
	opts := DefaultSearchOptions()
	opts.Seed = DeriveSeed(2, SeedStreamInference, 0)
	single := []statsTask{{simulatedPatterns(t, so), gamma, opts}}

	small := simulatedPatterns(t, SimulateOptions{Taxa: 8, Length: 300, Seed: 5, MeanBranchLength: 0.1})
	var smalls []statsTask
	for seed := int64(0); seed < 8; seed++ {
		smalls = append(smalls, statsTask{small, SingleRate(), SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.05, Seed: seed}})
	}
	return []string{"bootstrap_search", "single_search", "small_search"}, [][]statsTask{boot, single, smalls}
}

// statsLine runs a shape's tasks serially and formats its summed counters.
func statsLine(t *testing.T, name string, tasks []statsTask) string {
	var sum KernelStats
	var evaluated, accepted, sweeps int
	for _, task := range tasks {
		eng, err := NewEngine(task.data, NewJC69(), task.rates)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.SearchContext(context.Background(), task.opts)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.Stats
		sum.NewviewCalls += s.NewviewCalls
		sum.OutviewCalls += s.OutviewCalls
		sum.EvaluateCalls += s.EvaluateCalls
		sum.MakenewzCalls += s.MakenewzCalls
		sum.DerivEvals += s.DerivEvals
		evaluated += res.NNIEvaluated
		accepted += res.NNIAccepted
		sweeps += res.Rounds
	}
	return fmt.Sprintf("%s newview=%d outview=%d evaluate=%d makenewz=%d deriv_evals=%d nni_evaluated=%d nni_accepted=%d sweeps=%d\n",
		name, sum.NewviewCalls, sum.OutviewCalls, sum.EvaluateCalls, sum.MakenewzCalls,
		sum.DerivEvals, evaluated, accepted, sweeps)
}

// TestKernelStatsMatchGolden holds the kernel and search counters of the
// three shapes to kernelStatsGolden.
func TestKernelStatsMatchGolden(t *testing.T) {
	names, shapes := statsShapes(t)
	var b strings.Builder
	for i, tasks := range shapes {
		b.WriteString(statsLine(t, names[i], tasks))
	}
	got := b.String()
	want, err := os.ReadFile(kernelStatsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("kernel work changed:\ngot\n%swant\n%s", got, want)
	}
}
