// Command ndtune runs the Ansor-substitute evolutionary schedule
// search on one convolution layer and reports the best schedule, its
// throughput, and nDirect's throughput on the same layer for
// comparison (the per-layer view behind Figure 6). nDirect itself
// never reads the result: its plans come from the analytical model.
//
// Runs are deterministic for a fixed -seed and machine-independent in
// which schedules they try (only the measured times, and hence the
// winner, vary with the host). Failures exit non-zero: 2 for usage
// errors, 1 when tuning measured no admissible schedule or an
// execution failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ndirect/internal/autotune"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/parallel"
)

func main() {
	os.Exit(run())
}

// parseShape parses "c,h,w,k,r,s,stride,pad" into a batch-1 shape.
func parseShape(spec string) (conv.Shape, error) {
	var s conv.Shape
	s.N = 1
	n, err := fmt.Sscanf(spec, "%d,%d,%d,%d,%d,%d,%d,%d",
		&s.C, &s.H, &s.W, &s.K, &s.R, &s.S, &s.Str, &s.Pad)
	if err != nil || n != 8 {
		return s, fmt.Errorf("want c,h,w,k,r,s,stride,pad, got %q", spec)
	}
	return s, s.Validate()
}

func run() int {
	var (
		layerID   = flag.Int("layer", 3, "Table 4 layer id (1-28)")
		shapeSpec = flag.String("shape", "", "explicit shape c,h,w,k,r,s,stride,pad (overrides -layer)")
		batch     = flag.Int("batch", 1, "batch size")
		threads   = flag.Int("threads", parallel.DefaultThreads(), "worker threads")
		trials    = flag.Int("trials", 48, "measurement budget")
		popSize   = flag.Int("population", 12, "schedules per generation")
		gens      = flag.Int("generations", 4, "evolution rounds")
		seed      = flag.Int64("seed", 1, "search seed (fixed seed -> same candidate sequence)")
		useCM     = flag.Bool("cost-model", false, "enable the Ansor-style learned cost model")
	)
	flag.Parse()

	var s conv.Shape
	if *shapeSpec != "" {
		parsed, err := parseShape(*shapeSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndtune: bad -shape: %v\n", err)
			return 2
		}
		s = parsed.WithBatch(*batch)
		fmt.Printf("tuning shape: %v\n", s)
	} else {
		l, ok := conv.LayerByID(*layerID)
		if !ok {
			fmt.Fprintf(os.Stderr, "ndtune: no Table 4 layer %d\n", *layerID)
			return 2
		}
		s = l.Shape.WithBatch(*batch)
		fmt.Printf("tuning layer %d: %v\n", l.ID, s)
	}

	res := autotune.Tune(s, autotune.TuneOptions{
		Population:   *popSize,
		Generations:  *gens,
		Trials:       *trials,
		Threads:      *threads,
		Seed:         *seed,
		UseCostModel: *useCM,
	})
	if *useCM {
		fmt.Printf("cost model ranked %d candidates without measuring them\n", res.ModelRanked)
	}
	if res.Trials == 0 || !res.Best.Valid(s) {
		fmt.Fprintf(os.Stderr, "ndtune: no admissible schedule measured for %v\n", s)
		return 1
	}
	gf := float64(s.FLOPs()) / res.BestSec / 1e9
	fmt.Printf("best schedule after %d trials: %v\n", res.Trials, res.Best)
	fmt.Printf("tuned throughput: %.2f GFLOPS (%.4fs)\n", gf, res.BestSec)

	// nDirect on the same layer, same threads.
	in := s.NewInput()
	in.FillRandom(11)
	filter := s.NewFilter()
	filter.FillRandom(13)
	plan, err := core.TryNewPlan(s, core.Options{Threads: *threads})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndtune: planning %v failed: %v\n", s, err)
		return 1
	}
	out := s.NewOutput()
	if err := plan.TryExecute(in, filter, out); err != nil { // warm-up
		fmt.Fprintf(os.Stderr, "ndtune: nDirect execution failed: %v\n", err)
		return 1
	}
	t0 := time.Now()
	if err := plan.TryExecute(in, filter, out); err != nil {
		fmt.Fprintf(os.Stderr, "ndtune: nDirect execution failed: %v\n", err)
		return 1
	}
	ndSec := time.Since(t0).Seconds()
	ndGF := float64(s.FLOPs()) / ndSec / 1e9
	fmt.Printf("nDirect throughput: %.2f GFLOPS (%.4fs)  -> speedup %.2fx over tuned schedule\n",
		ndGF, ndSec, ndGF/gf)
	return 0
}
