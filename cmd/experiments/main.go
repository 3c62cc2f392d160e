// Command experiments regenerates every table and figure of the paper's
// evaluation, plus three ablations and a calibration against this host's
// kernels, from the scheduler simulator and models of the comparison
// machines, prints each with its claims checked, and exits 1 if any claim
// fails.
//
// Examples:
//
//	experiments                 # full sweeps (seconds)
//	experiments -quick          # trimmed sweeps
//	experiments -only E2,E5     # just Table 1 and Figure 8
//
// A traced native MGPS run of the workload the suite models is
// `raxml-go -taxa 16 -length 600 -bootstraps 8 -trace out.json`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cellmg/internal/experiments"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "run trimmed sweeps (smaller workloads, fewer points)")
		only  = flag.String("only", "", "comma-separated experiment IDs to run (e.g. E2,E5); empty runs all")
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
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) had failing claims\n", failed)
		os.Exit(1)
	}
}
