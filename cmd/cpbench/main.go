// Command cpbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	cpbench -list
//	cpbench -exp table4
//	cpbench -exp all
//
// Each experiment prints the same rows/series the paper reports, with the
// paper's measured values alongside the model's predictions where the paper
// publishes numbers. Speed is measured elsewhere: `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	list := flag.Bool("list", false, "list available experiment ids")
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	workers := flag.Int("workers", 0, "attention kernel worker-pool width for experiments (0 = GOMAXPROCS)")
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-24s %s\n", id, experiments.Title(id))
		}
		return
	}
	if *exp == "all" {
		tables, err := experiments.RunAll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpbench:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
		return
	}
	t, err := experiments.Run(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpbench:", err)
		os.Exit(1)
	}
	fmt.Println(t)
}
