// Command ndbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ndbench -exp fig4 -platform phytium          # modeled Figure 4
//	ndbench -exp fig4 -measured -batch 2         # host-measured Figure 4
//	ndbench -exp fig1a -batch 1                  # measured breakdown
//	ndbench -exp fig7 -models resnet50,vgg16     # end-to-end (modeled)
//	ndbench -exp all                             # every modeled experiment
//
// Experiments: table2 table3 table4 fig1a fig1b fig4 fig5 fig6 fig7
// fig8 fig9 steady dwsep all. See EXPERIMENTS.md for the mapping to
// the paper and the expected shapes of the results; "steady" is the
// serving-loop extra (one-shot calls vs the cached-plan packed path)
// and "dwsep" the MobileNet-block extra (fused depthwise-separable vs
// the unfused two-call composition).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ndirect/internal/bench"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/hw"
	"ndirect/internal/parallel"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table2|table3|table4|fig1a|fig1b|fig4|fig5|fig6|fig7|fig8|fig9|winograd|fft|variance|steady|dwsep|all")
		platform = flag.String("platform", "phytium", "modeled platform: phytium|kp920|tx2|rpi4")
		measured = flag.Bool("measured", false, "run the measured (host wall-clock) variant where available")
		batch    = flag.Int("batch", 1, "measured-mode batch size")
		threads  = flag.Int("threads", parallel.DefaultThreads(), "measured-mode worker threads")
		reps     = flag.Int("reps", 2, "measured-mode repetitions (min time reported)")
		trials   = flag.Int("tune-trials", 24, "Ansor-substitute search budget per layer")
		layers   = flag.String("layers", "", "measured fig4 layer subset, e.g. 1,3,5-10 (default: all 28)")
		models   = flag.String("models", "resnet50,vgg16", "fig7 model list")
		csvMode  = flag.Bool("csv", false, "emit CSV instead of the text table (fig4 and fig6)")
		outPath  = flag.String("out", "", "write output to this file instead of stdout")
	)
	flag.Parse()

	p, ok := hw.ByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
		os.Exit(2)
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if !*csvMode {
		fmt.Fprintf(out, "# ndbench: platform=%s threads=%d kernel_isa=%s\n", *platform, *threads, core.KernelISA())
	}
	cfg := bench.Config{
		Platform:   p,
		Threads:    *threads,
		Batch:      *batch,
		Reps:       *reps,
		TuneTrials: *trials,
		Out:        out,
	}
	modelList := strings.Split(*models, ",")

	run := func(name string) {
		switch name {
		case "table2":
			bench.Table2(cfg)
		case "table3":
			bench.Table3(cfg)
		case "table4":
			bench.Table4(cfg)
		case "fig1a":
			bench.Fig1a(cfg)
		case "fig1b":
			bench.Fig1b(cfg)
		case "fig4":
			switch {
			case *csvMode:
				if err := bench.Fig4CSV(cfg, hw.Platforms[:3]); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			case *measured:
				bench.Fig4Measured(cfg, selectLayers(*layers))
			default:
				bench.Fig4(cfg)
			}
		case "fig5":
			bench.Fig5(cfg)
		case "fig6":
			if *csvMode {
				if err := bench.Fig6CSV(cfg, hw.Platforms[:3]); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				bench.Fig6(cfg, *measured)
			}
		case "fig7":
			if *measured {
				bench.Fig7Measured(cfg, modelList)
			} else {
				bench.Fig7Modeled(cfg, modelList)
			}
		case "fig8":
			bench.Fig8(cfg)
		case "fig9":
			bench.Fig9(cfg)
		case "winograd":
			bench.ExtraWinograd(cfg)
		case "fft":
			bench.ExtraFFT(cfg)
		case "variance":
			bench.Variance(cfg, 3)
		case "steady":
			bench.Steady(cfg)
		case "dwsep":
			bench.DWSep(cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "table3", "table4", "fig1b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
			run(name)
		}
		fmt.Println("(fig1a is measured-only: run `ndbench -exp fig1a`)")
		return
	}
	run(*exp)
}

// selectLayers parses "1,3,5-10" into Table 4 layers (empty = all).
func selectLayers(spec string) []conv.Layer {
	if spec == "" {
		return conv.Table4
	}
	var out []conv.Layer
	for _, part := range strings.Split(spec, ",") {
		if lo, hi, found := strings.Cut(part, "-"); found {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil {
				continue
			}
			for id := a; id <= b; id++ {
				if l, ok := conv.LayerByID(id); ok {
					out = append(out, l)
				}
			}
		} else if id, err := strconv.Atoi(part); err == nil {
			if l, ok := conv.LayerByID(id); ok {
				out = append(out, l)
			}
		}
	}
	if len(out) == 0 {
		return conv.Table4
	}
	return out
}
