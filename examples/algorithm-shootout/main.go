// Algorithm shootout: the public-API view of the paper's design
// ablations — overlapped vs sequential packing (Figure 5), NCHW vs
// NHWC entry points, and 3-D convolution (§10.2).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ndirect"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	layerID := flag.Int("layer", 26, "Table 4 layer id")
	batch := flag.Int("batch", 1, "batch size")
	flag.Parse()

	l, err := ndirect.LayerByID(*layerID)
	if err != nil {
		fatal(err)
	}
	s := l.Shape.WithBatch(*batch)
	in := ndirect.NewTensor(s.N, s.C, s.H, s.W)
	in.FillRandom(1)
	w := ndirect.NewTensor(s.K, s.C, s.R, s.S)
	w.FillRandom(2)
	out := ndirect.NewTensor(s.N, s.K, s.P(), s.Q())

	run := func(label string, opt ndirect.Options) {
		plan, err := ndirect.TryNewPlan(s, opt)
		if err != nil {
			fatal(err)
		}
		if err := plan.TryExecute(in, w, out); err != nil { // warm-up
			fatal(err)
		}
		t0 := time.Now()
		if err := plan.TryExecute(in, w, out); err != nil {
			fatal(err)
		}
		sec := time.Since(t0).Seconds()
		fmt.Printf("%-34s %8.2f GFLOPS  (kernel %s)\n",
			label, float64(s.FLOPs())/sec/1e9, plan.KernelName())
	}

	fmt.Printf("layer %d: %v\n\n", l.ID, s)
	run("analytical tiles, overlapped pack", ndirect.Options{})
	run("sequential pack (Fig. 5 baseline)", ndirect.Options{SequentialPack: true})

	// NHWC entry point: no activation layout conversion in either
	// direction.
	inNHWC := ndirect.NewTensor(s.N, s.H, s.W, s.C)
	inNHWC.FillRandom(1)
	t0 := time.Now()
	if _, err := ndirect.TryConv2DNHWC(s, inNHWC, w, ndirect.Options{}); err != nil {
		fatal(err)
	}
	fmt.Printf("%-34s %8.2f GFLOPS\n", "NHWC entry point",
		float64(s.FLOPs())/time.Since(t0).Seconds()/1e9)

	// 3-D convolution (§10.2): a small video-style volume.
	s3 := ndirect.Shape3D{
		Shape: ndirect.Shape{N: 1, C: 8, H: 28, W: 28, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
		D:     8, T: 3, StrD: 1, PadD: 1,
	}
	in3 := ndirect.NewTensor(1, 8, 8, 28, 28)
	in3.FillRandom(3)
	w3 := ndirect.NewTensor(16, 8, 3, 3, 3)
	w3.FillRandom(4)
	t0 = time.Now()
	out3, err := ndirect.TryConv3D(s3, in3, w3, ndirect.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-34s output %v in %.3fms\n", "3-D convolution",
		out3.Dims, time.Since(t0).Seconds()*1e3)
}
