package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// inferFuncRegistry registers tinyNet as t/m and returns it with an
// input and Infer's output for it.
func inferFuncRegistry(t *testing.T) (r *Registry, x, want *tensor.Tensor) {
	t.Helper()
	r = NewRegistry(RegistryConfig{Runtime: New(Config{})})
	if err := r.Register("t", "m", tinyNet(31, false)); err != nil {
		t.Fatal(err)
	}
	x = testShape.NewInput()
	fillInts(x, 32)
	want, err := r.Infer(context.Background(), "t", "m", x)
	if err != nil {
		t.Fatal(err)
	}
	return r, x, want
}

// checkSame fails t unless got holds want's bits.
func checkSame(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%d elements, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestInferFuncRecyclesOutput: InferFunc's output is Infer's, bit for
// bit, and its buffer goes back to the model's engine, so a later
// request writes into it. sync.Pool may drop a parked buffer (at random
// under -race), so the reuse need only show once in a run of requests.
func TestInferFuncRecyclesOutput(t *testing.T) {
	r, x, want := inferFuncRegistry(t)
	var prev *float32
	reused := false
	for i := 0; i < 50; i++ {
		var first *float32
		err := r.InferFunc(context.Background(), "t", "m", x, func(out *tensor.Tensor) {
			checkSame(t, out, want)
			first = &out.Data[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		reused = reused || first == prev
		prev = first
	}
	if !reused {
		t.Fatal("no InferFunc wrote into the previous one's output buffer")
	}
}

// TestInferFuncCancelledRunsNothing: a request whose context is done
// before admission, or is cancelled between layers, fails typed without
// running use.
func TestInferFuncCancelledRunsNothing(t *testing.T) {
	r, x, _ := inferFuncRegistry(t)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	use := func(*tensor.Tensor) { t.Fatal("use ran for a cancelled request") }
	if err := r.InferFunc(done, "t", "m", x, use); err == nil {
		t.Fatal("InferFunc on a done context succeeded")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := tinyNet(12, false)
	net.Layers = append(net.Layers, cancelLayer{cancel}, &countLayer{})
	if err := r.Register("t", "cut", net); err != nil {
		t.Fatal(err)
	}
	if err := r.InferFunc(ctx, "t", "cut", x, use); !errors.Is(err, conv.ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want an error wrapping ErrDeadline and context.Canceled", err)
	}
}

// TestInferFuncConcurrent is a -race target: two goroutines make 200
// InferFunc calls each on one model, every output read inside use
// against Infer's, while the engine hands recycled buffers between them.
func TestInferFuncConcurrent(t *testing.T) {
	r, _, want := inferFuncRegistry(t)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := testShape.NewInput()
			fillInts(x, 32)
			for i := 0; i < 200; i++ {
				bad := -1
				err := r.InferFunc(context.Background(), "t", "m", x, func(out *tensor.Tensor) {
					for j := range want.Data {
						if out.Data[j] != want.Data[j] {
							bad = j
							return
						}
					}
				})
				if err == nil && bad >= 0 {
					err = errors.New("output differs from Infer's")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
