// Command benchall regenerates every table and figure of the TAC paper's
// evaluation section on the synthetic datasets and prints them in paper
// order. See EXPERIMENTS.md for the paper-vs-measured record. (Performance
// of the storage stack is measured by bench/, not here.)
//
// Usage:
//
//	benchall [-scale 4] [-only fig14] [-list]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchall: ")
	scale := flag.Int("scale", experiments.DefaultScale, "resolution divisor vs the paper (power of two, 1-16)")
	only := flag.String("only", "", "run a single exhibit (e.g. table2, fig15)")
	list := flag.Bool("list", false, "list exhibit IDs and exit")
	flag.Parse()

	if *list {
		for _, ex := range experiments.Exhibits() {
			fmt.Printf("%-8s %s\n", ex.ID, ex.Desc)
		}
		return
	}
	env := experiments.NewEnv(*scale)
	start := time.Now()
	var err error
	if *only != "" {
		err = experiments.RunByID(os.Stdout, env, *only)
	} else {
		err = experiments.RunAll(os.Stdout, env)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[benchall completed in %v at scale 1/%d]\n", time.Since(start).Round(time.Second), *scale)
}
