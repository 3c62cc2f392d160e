package phylo

import (
	"context"
	"math"
	"math/rand"
)

// BootstrapWeights draws one non-parametric bootstrap replicate: alignment
// columns are resampled with replacement, which at the pattern level means
// drawing SiteLength columns from the patterns with probabilities
// proportional to their original weights. The returned slice sums to the
// original alignment length.
func BootstrapWeights(p *PatternAlignment, rng *rand.Rand) []float64 {
	weights := make([]float64, p.NumPatterns())
	total := p.TotalWeight()
	if total == 0 {
		return weights
	}
	// Cumulative distribution over patterns.
	cum := make([]float64, p.NumPatterns())
	var acc float64
	for i, w := range p.Weights {
		acc += w
		cum[i] = acc
	}
	n := p.SiteLength
	if n == 0 {
		n = int(total)
	}
	for s := 0; s < n; s++ {
		r := rng.Float64() * total
		// Binary search for the pattern containing r.
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		weights[lo]++
	}
	return weights
}

// Bootstrap returns one bootstrap replicate of p: the patterns a resample of
// the original columns drew, in their original order, weighted by how often
// each was drawn (WithWeights — about a third of the patterns of a typical
// alignment are never drawn and are not in the replicate, so every kernel
// runs over the smaller pattern count). The replicate shares p's Names and
// nothing else. An alignment of total weight 0 has nothing to draw from and
// is an error.
func Bootstrap(p *PatternAlignment, rng *rand.Rand) (*PatternAlignment, error) {
	return p.WithWeights(BootstrapWeights(p, rng))
}

// SupportValues computes, for every non-trivial bipartition of the reference
// tree, the fraction of replicate trees that contain it — the bootstrap
// support values a published RAxML analysis reports on the best-known tree.
func SupportValues(reference *Tree, replicates []*Tree) map[string]float64 {
	out := map[string]float64{}
	refSplits := reference.Bipartitions()
	if len(replicates) == 0 {
		for s := range refSplits {
			out[s] = 0
		}
		return out
	}
	counts := map[string]int{}
	for _, rep := range replicates {
		for s := range rep.Bipartitions() {
			if refSplits[s] {
				counts[s]++
			}
		}
	}
	for s := range refSplits {
		out[s] = float64(counts[s]) / float64(len(replicates))
	}
	return out
}

// AnalysisOptions configures a full RAxML-style analysis: a number of
// distinct maximum-likelihood searches on the original alignment plus a
// number of bootstrap replicates.
type AnalysisOptions struct {
	Inferences int
	Bootstraps int
	Search     SearchOptions
	Seed       int64
}

// TaskID identifies one task of an analysis: inference i or bootstrap
// replicate j — the paper's unit of task-level parallelism. The zero Index
// is valid; the pair is stable across runs because tasks are indexed, not
// ordered by completion.
type TaskID struct {
	Bootstrap bool
	Index     int
}

// TaskOutcome is one task's completed result, the unit of replicate-granular
// recovery. Tree is the search's final tree with exact branch-length bits
// (persist it with AppendTreeBinary, never Newick, to keep recovery
// byte-identical).
type TaskOutcome struct {
	Task   TaskID
	LogLik float64
	Tree   *Tree
}

// AnalysisResult is the outcome of an analysis, serial or parallel.
type AnalysisResult struct {
	BestTree      *Tree
	BestLogLik    float64
	InferenceLogs []float64
	Replicates    []*Tree
	Support       map[string]float64
}

// Tasks returns the analysis's task list in its canonical order: every
// inference by index (at least one), then every bootstrap by index.
// AssembleAnalysis expects outcomes in this order.
func (o AnalysisOptions) Tasks() []TaskID {
	inferences := max(o.Inferences, 1)
	tasks := make([]TaskID, 0, inferences+o.Bootstraps)
	for i := 0; i < inferences; i++ {
		tasks = append(tasks, TaskID{Index: i})
	}
	for b := 0; b < o.Bootstraps; b++ {
		tasks = append(tasks, TaskID{Bootstrap: true, Index: b})
	}
	return tasks
}

// RunTask is the one task body behind every analysis driver: derive the
// task's seeds, replace the alignment by its replicate if it is a bootstrap
// (Bootstrap: the drawn patterns only), build the engine and run the search.
// par is the loop-level executor for the engine's pattern loops (nil =
// serial); resume, when non-nil, restarts the search from that sweep-boundary
// checkpoint; checkpoint, when non-nil, receives every sweep-boundary
// checkpoint (engine-owned: encode it inside the call).
//
// All of the task's randomness — an inference's starting tree, a bootstrap's
// column resample and starting tree — is seeded by DeriveSeed(opts.Seed,
// stream, id.Index), so the outcome is a pure function of (data, model,
// rates, opts, id): tasks can run, be skipped or be resumed in any order and
// on any executor without perturbing each other.
func RunTask(ctx context.Context, data *PatternAlignment, model Model, rates RateCategories,
	opts AnalysisOptions, id TaskID, par ParallelFor, resume *Checkpoint, checkpoint func(*Checkpoint)) (TaskOutcome, error) {
	so := opts.Search
	so.Resume, so.Checkpoint = resume, checkpoint
	if id.Bootstrap {
		rng := rand.New(rand.NewSource(DeriveSeed(opts.Seed, SeedStreamBootstrapWeights, id.Index)))
		var err error
		if data, err = Bootstrap(data, rng); err != nil {
			return TaskOutcome{}, err
		}
		so.Seed = DeriveSeed(opts.Seed, SeedStreamBootstrapSearch, id.Index)
	} else {
		so.Seed = DeriveSeed(opts.Seed, SeedStreamInference, id.Index)
	}
	eng, err := NewEngine(data, model, rates)
	if err != nil {
		return TaskOutcome{}, err
	}
	eng.SetParallel(par)
	sr, err := eng.SearchContext(ctx, so)
	if err != nil {
		return TaskOutcome{}, err
	}
	return TaskOutcome{Task: id, LogLik: sr.LogLikelihood, Tree: sr.Tree}, nil
}

// AssembleAnalysis folds the outcomes of every task, in Tasks() order, into
// the analysis result: the per-inference log-likelihoods, the best inference
// (first wins a tie), the bootstrap replicate trees and — when there are
// replicates — their support for the best tree's bipartitions.
func AssembleAnalysis(outcomes []TaskOutcome) *AnalysisResult {
	res := &AnalysisResult{BestLogLik: negInf()}
	for _, out := range outcomes {
		if out.Task.Bootstrap {
			res.Replicates = append(res.Replicates, out.Tree)
			continue
		}
		res.InferenceLogs = append(res.InferenceLogs, out.LogLik)
		if out.LogLik > res.BestLogLik {
			res.BestLogLik = out.LogLik
			res.BestTree = out.Tree
		}
	}
	if res.BestTree != nil && len(res.Replicates) > 0 {
		res.Support = SupportValues(res.BestTree, res.Replicates)
	}
	return res
}

// RunAnalysis performs the analysis serially: every task of the list runs
// inline through RunTask, then the outcomes are assembled. The native runtime
// provides the parallel version (each task off-loaded, exactly the task-level
// parallelism the paper exploits) over the same two functions; this driver is
// the reference the parallel one is checked against.
func RunAnalysis(data *PatternAlignment, model Model, rates RateCategories, opts AnalysisOptions) (*AnalysisResult, error) {
	tasks := opts.Tasks()
	outcomes := make([]TaskOutcome, len(tasks))
	for i, id := range tasks {
		out, err := RunTask(context.Background(), data, model, rates, opts, id, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		outcomes[i] = out
	}
	return AssembleAnalysis(outcomes), nil
}

// negInf is the identity of the best-logL comparisons above: any real search
// result beats it. It must be a true -Inf, not a large-magnitude finite
// sentinel — a finite sentinel silently loses to nothing but also *wins*
// against a genuinely -Inf candidate, turning "no valid result" into a
// recorded best. (Engine log-likelihoods themselves are always finite: the
// evaluate kernel clamps per-site likelihoods to math.SmallestNonzeroFloat64,
// so even all-gap patterns and boundary branch lengths produce finite logL —
// see TestDegenerateInputsFiniteLogL.)
func negInf() float64 { return math.Inf(-1) }
