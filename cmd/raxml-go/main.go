// Command raxml-go runs a maximum-likelihood phylogenetic analysis — multiple
// inferences plus non-parametric bootstraps — on the native multigrain
// runtime, the Go counterpart of running RAxML on the Cell under the paper's
// scheduler.
//
// With -in it reads a sequential PHYLIP alignment; without it, it simulates a
// synthetic alignment (useful for demos and benchmarking).
//
// Examples:
//
//	raxml-go -taxa 16 -length 800 -inferences 4 -bootstraps 8 -policy mgps
//	raxml-go -in alignment.phy -bootstraps 100 -workers 8 -policy edtlp
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cellmg/internal/flight"
	"cellmg/internal/native"
	"cellmg/internal/phylo"
)

func main() {
	var (
		inFile     = flag.String("in", "", "sequential PHYLIP alignment (empty: simulate one)")
		taxa       = flag.Int("taxa", 16, "taxa for the simulated alignment")
		length     = flag.Int("length", 800, "sites for the simulated alignment")
		inferences = flag.Int("inferences", 2, "distinct ML searches on the original alignment")
		bootstraps = flag.Int("bootstraps", 8, "bootstrap replicates")
		workers    = flag.Int("workers", 8, "worker pool size (the 'SPEs')")
		policyName = flag.String("policy", "mgps", "scheduling policy: edtlp | llp | mgps")
		loopWidth  = flag.Int("spes-per-loop", 4, "workers per loop for the llp policy")
		gamma      = flag.Float64("gamma", 0, "discrete-Gamma shape (0 disables rate heterogeneity)")
		seed       = flag.Int64("seed", 42, "random seed")
		traceOut   = flag.String("trace", "", "write a Chrome trace of the run to this file (load in ui.perfetto.dev)")
	)
	flag.Parse()

	aln, err := loadOrSimulate(*inFile, *taxa, *length, *seed)
	if err != nil {
		fail(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		fail(err)
	}
	fmt.Printf("alignment: %d taxa x %d sites, %d distinct patterns\n",
		data.NumTaxa(), data.SiteLength, data.NumPatterns())

	pol, err := native.ParsePolicy(*policyName)
	if err != nil {
		fail(err)
	}
	var rec *flight.Recorder
	if *traceOut != "" {
		rec = flight.New(flight.Config{Workers: *workers})
	}
	rt := native.New(native.Options{Workers: *workers, Policy: pol, SPEsPerLoop: *loopWidth, Flight: rec})
	defer rt.Close()

	rates := phylo.SingleRate()
	if *gamma > 0 {
		rates, err = phylo.DiscreteGamma(*gamma, 4)
		if err != nil {
			fail(err)
		}
	}

	start := time.Now()
	res, err := native.RunAnalysis(rt, data, native.AnalysisOptions{
		Inferences: *inferences,
		Bootstraps: *bootstraps,
		Search:     phylo.DefaultSearchOptions(),
		Seed:       *seed,
		Model:      phylo.NewJC69(),
		Rates:      rates,
	})
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nbest log-likelihood: %.4f\n", res.BestLogLik)
	fmt.Printf("inference log-likelihoods: ")
	for _, ll := range res.InferenceLogs {
		fmt.Printf("%.2f ", ll)
	}
	fmt.Println()
	fmt.Printf("best tree: %s\n", res.BestTree.Newick())
	if len(res.Support) > 0 {
		fmt.Println("bootstrap support:")
		splits := make([]string, 0, len(res.Support))
		for s := range res.Support {
			splits = append(splits, s)
		}
		sort.Strings(splits)
		for _, s := range splits {
			fmt.Printf("  {%s}: %.0f%%\n", s, 100*res.Support[s])
		}
	}

	stats := rt.Stats()
	fmt.Printf("\nruntime: %v wall clock, policy %v, final decision %v\n", elapsed.Round(time.Millisecond), pol, rt.Decision())
	fmt.Printf("tasks run: %d, loops work-shared: %d, loops serial: %d\n",
		stats.TasksRun, stats.LoopsWorkShared, stats.LoopsSerial)
	var busy time.Duration
	for _, b := range stats.WorkerBusy {
		busy += b
	}
	fmt.Printf("aggregate worker busy time: %v across %d workers\n", busy.Round(time.Millisecond), rt.Workers())

	if rec != nil {
		snap := rec.Snapshot()
		if err := writeTrace(*traceOut, snap); err != nil {
			fail(err)
		}
		fmt.Printf("flight trace: %s (%s)\n", *traceOut, snap.Summary())
	}
}

func writeTrace(path string, snap flight.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadOrSimulate(path string, taxa, length int, seed int64) (*phylo.Alignment, error) {
	if path == "" {
		_, aln, err := phylo.Simulate(phylo.SimulateOptions{
			Taxa: taxa, Length: length, Seed: seed, MeanBranchLength: 0.08,
		})
		return aln, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return phylo.ParsePhylip(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "raxml-go:", err)
	os.Exit(1)
}
