// Command msbench regenerates the tables and figures of the paper's
// evaluation section on the virtual cluster. Each experiment prints the
// same rows or series the paper reports; compare shapes (who wins, by
// what factor, where crossovers fall) rather than absolute seconds.
//
// Usage:
//
//	msbench -exp table1|table2|fig4|fig5|fig6|fig7|fig9|fig10|all [flags]
//
// Beyond the paper's evaluation, extension studies are available:
// "balance" (multiple blocks per process on a skewed workload),
// "speedup" (real measured shared-memory scaling on this host),
// "globalsimplify" (the future-work global persistence simplification),
// "mapping" (torus rank-placement sensitivity of the merge stage),
// "bench" (a traced strong-scaling sweep that also writes a
// BENCH_<timestamp>.json snapshot with per-stage times, imbalance
// ratios, and communication volumes for trend tracking), and
// "recovery" (a recovery-cost drill crashing one rank per merge round,
// comparing checkpoint-restore against recompute-from-source).
//
// Flags:
//
//	-scale F     multiply dataset extents (default 1.0; the paper's
//	             sizes need roughly 8 and hours of runtime)
//	-maxprocs N  cap the largest rank count of scaling sweeps
//	-parallel N  bound host goroutine concurrency (default NumCPU)
//	-json FILE   where "bench" writes its JSON snapshot
//	             (default BENCH_<timestamp>.json)
//	-q           quiet progress output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"parms/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig4, fig5, fig6, fig7, fig9, fig10, balance, speedup, globalsimplify, mapping, bench, recovery, all")
	scale := flag.Float64("scale", 1.0, "dataset extent multiplier")
	maxProcs := flag.Int("maxprocs", 0, "cap on rank counts in scaling sweeps (0 = experiment default)")
	parallel := flag.Int("parallel", 0, "host goroutine concurrency bound (0 = NumCPU)")
	jsonOut := flag.String("json", "", `where "bench" writes its JSON snapshot (default BENCH_<timestamp>.json)`)
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	cfg := experiments.Config{
		Scale:       *scale,
		MaxProcs:    *maxProcs,
		MaxParallel: *parallel,
		Verbose:     !*quiet,
		Progress:    os.Stderr,
	}
	runners := map[string]func() error{
		"table1": func() error { return show(experiments.TableI(cfg)) },
		"table2": func() error { return show(experiments.TableII(cfg)) },
		"fig4":   func() error { return show(experiments.Fig4(cfg)) },
		"fig5":   func() error { return show(experiments.Fig5(cfg)) },
		"fig6":   func() error { return show(experiments.Fig6(cfg)) },
		"fig7":   func() error { return show(experiments.Fig7(cfg)) },
		"fig9":   func() error { return show(experiments.Fig9(cfg)) },
		"fig10":  func() error { return show(experiments.Fig10(cfg)) },
		// Studies beyond the paper's evaluation.
		"balance":        func() error { return show(experiments.LoadBalance(cfg)) },
		"speedup":        func() error { return show(experiments.Speedup(cfg)) },
		"globalsimplify": func() error { return show(experiments.GlobalSimplify(cfg)) },
		"mapping":        func() error { return show(experiments.Mapping(cfg)) },
		"bench":          func() error { return runBench(cfg, *jsonOut) },
		"recovery":       func() error { return show(experiments.Recovery(cfg)) },
	}
	order := []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10",
		"balance", "speedup", "globalsimplify", "mapping", "bench", "recovery"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "msbench: unknown experiment %q (have %s)\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		start := time.Now()
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %.1fs wall time]\n\n", name, time.Since(start).Seconds())
	}
}

// runBench runs the traced scaling sweep and writes its JSON snapshot.
func runBench(cfg experiments.Config, path string) error {
	res, err := experiments.Bench(cfg)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// printable is any experiment result that renders itself as a table.
type printable interface{ Print(w io.Writer) }

func show(res printable, err error) error {
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	fmt.Println()
	return nil
}
