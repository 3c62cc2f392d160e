// Command experiments regenerates every table and figure of the paper's
// evaluation (plus the ablations listed in DESIGN.md) from the simulator and
// host models, prints them, and optionally writes a markdown report in the
// format of EXPERIMENTS.md.
//
// Examples:
//
//	experiments                 # full sweeps (a few minutes)
//	experiments -quick          # trimmed sweeps (tens of seconds)
//	experiments -only E2,E5     # just Table 1 and Figure 8
//	experiments -markdown out.md
//	experiments -trace out.json # also record a traced native MGPS run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cellmg/internal/experiments"
	"cellmg/internal/flight"
	"cellmg/internal/native"
	"cellmg/internal/phylo"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run trimmed sweeps (smaller workloads, fewer points)")
		only     = flag.String("only", "", "comma-separated experiment IDs to run (e.g. E2,E5); empty runs all")
		markdown = flag.String("markdown", "", "write a markdown report to this file")
		traceOut = flag.String("trace", "", "record a native MGPS analysis (the workload the suite models) and write its Chrome trace here")
	)
	flag.Parse()

	cfg := experiments.Config{Quick: *quick}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		if id != "" {
			wanted[strings.ToUpper(id)] = true
		}
	}

	var reports []experiments.Report
	failed := 0
	for _, e := range experiments.Experiments {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		rep := e.Run(cfg)
		fmt.Print(rep.String())
		fmt.Printf("(%s took %v)\n\n", rep.ID, time.Since(start).Round(time.Millisecond))
		if !rep.Passed() {
			failed++
		}
		reports = append(reports, rep)
	}

	if *markdown != "" {
		var b strings.Builder
		b.WriteString("# Reproduction results\n\n")
		mode := "full"
		if *quick {
			mode = "quick"
		}
		fmt.Fprintf(&b, "Generated by `cmd/experiments` (%s sweeps).\n\n", mode)
		for _, rep := range reports {
			b.WriteString(rep.Markdown())
		}
		if err := os.WriteFile(*markdown, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing markdown:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *markdown)
	}

	if *traceOut != "" {
		if err := recordNativeTrace(*traceOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: recording trace:", err)
			os.Exit(1)
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) had failing claims\n", failed)
		os.Exit(1)
	}
}

// recordNativeTrace runs the suite's companion native workload — several
// concurrent inferences and bootstraps on one MGPS runtime — under the flight
// recorder, and writes the resulting Chrome trace. Loaded in ui.perfetto.dev
// it shows the queue/kernel spans and MGPS degree switches the simulated
// experiments reason about abstractly.
func recordNativeTrace(path string, quick bool) error {
	taxa, length, boots := 16, 600, 8
	if quick {
		taxa, length, boots = 10, 300, 4
	}
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: taxa, Length: length, Seed: 42, MeanBranchLength: 0.08})
	if err != nil {
		return err
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		return err
	}
	const workers = 8 // the paper's SPE count; lane layout must match the pool
	rec := flight.New(flight.Config{Workers: workers})
	rt := native.New(native.Options{Workers: workers, Policy: native.MGPS, Flight: rec})
	defer rt.Close()
	if _, err := native.RunAnalysis(rt, data, native.AnalysisOptions{
		Inferences: 2,
		Bootstraps: boots,
		Seed:       42,
		Search:     phylo.DefaultSearchOptions(),
		FlightID:   1,
	}); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := rec.Snapshot()
	if err := snap.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("flight trace: %s (%s)\n", path, snap.Summary())
	return nil
}
