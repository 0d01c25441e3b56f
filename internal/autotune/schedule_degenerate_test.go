package autotune

import (
	"math"
	"math/rand"
	"testing"

	"ndirect/internal/conv"
)

// degenerateShapes are the ragged edges the clamp bugs lived on: K
// smaller than any vector width, 1×1 outputs, outputs narrower than
// VecW, single-channel inputs.
var degenerateShapes = []conv.Shape{
	{N: 1, C: 1, H: 3, W: 3, K: 1, R: 3, S: 3, Str: 1, Pad: 1},   // everything minimal
	{N: 1, C: 2, H: 1, W: 1, K: 2, R: 1, S: 1, Str: 1, Pad: 0},   // 1×1 input and output
	{N: 1, C: 4, H: 5, W: 3, K: 3, R: 3, S: 3, Str: 1, Pad: 1},   // Q=3 < every VecW
	{N: 1, C: 8, H: 7, W: 7, K: 2, R: 3, S: 3, Str: 2, Pad: 1},   // K < Vk, strided
	{N: 1, C: 3, H: 9, W: 5, K: 5, R: 1, S: 1, Str: 2, Pad: 0},   // ragged strided pointwise
	{N: 1, C: 16, H: 8, W: 8, K: 64, R: 5, S: 5, Str: 1, Pad: 2}, // 5×5, outside every model table
}

// tuneShapes is the full table-driven domain: every model-table row
// plus the degenerate edges.
func tuneShapes() []conv.Shape {
	shapes := make([]conv.Shape, 0, len(conv.Table4)+len(degenerateShapes))
	for _, l := range conv.Table4 {
		shapes = append(shapes, l.Shape.WithBatch(1))
	}
	return append(shapes, degenerateShapes...)
}

// TestDefaultScheduleValidEverywhere: the untuned fallback must be
// admissible for every model-table row and every degenerate edge.
func TestDefaultScheduleValidEverywhere(t *testing.T) {
	for _, s := range tuneShapes() {
		if sch := DefaultSchedule(s); !sch.Valid(s) {
			t.Errorf("DefaultSchedule(%v) = %v is invalid", s, sch)
		}
	}
}

// TestClampScheduleTotal: clampSchedule must return an admissible
// schedule for ANY input — including the zero value a failed tune
// leaves behind (the divide-by-zero regression) and adversarial tile
// values — on every shape in the domain.
func TestClampScheduleTotal(t *testing.T) {
	adversarial := []Schedule{
		{}, // zero value: VecW=0 used to panic when TileW > Q
		{TileK: -3, TileC: -1, TileH: -7, TileW: -12, VecW: -4},
		{TileK: 1 << 20, TileC: 1 << 20, TileH: 1 << 20, TileW: 1 << 20, VecW: 5},
		{TileK: 1, TileC: 1, TileH: 1, TileW: 7, VecW: 12}, // TileW not a multiple
		{TileK: 64, TileC: 64, TileH: 14, TileW: 96, VecW: 8, UnrollS: true, ParallelKH: true},
	}
	for _, s := range tuneShapes() {
		for _, in := range adversarial {
			sch := clampSchedule(in, s)
			if !sch.Valid(s) {
				t.Errorf("clampSchedule(%v, %v) = %v is invalid", in, s, sch)
			}
		}
	}
}

// TestClampForZeroValueNoPanic is the end-to-end regression for the
// serving-path crash: a zero-value schedule reaching ClampFor (via
// nn.Engine.Tune storing a no-trial Result.Best) must clamp to an
// admissible schedule, not divide by zero.
func TestClampForZeroValueNoPanic(t *testing.T) {
	for _, s := range tuneShapes() {
		if sch := ClampFor(Schedule{}, s); !sch.Valid(s) {
			t.Errorf("ClampFor(zero, %v) = %v is invalid", s, sch)
		}
	}
}

// TestSampledSchedulesValid: randomSchedule, mutate and crossover must
// only ever emit admissible schedules, on every shape in the domain.
func TestSampledSchedulesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range tuneShapes() {
		var prev Schedule
		for i := 0; i < 24; i++ {
			sch := randomSchedule(rng, s)
			if !sch.Valid(s) {
				t.Fatalf("randomSchedule(%v) = %v is invalid", s, sch)
			}
			if m := mutate(rng, sch, s); !m.Valid(s) {
				t.Fatalf("mutate(%v, %v) = %v is invalid", sch, s, m)
			}
			if i > 0 {
				if c := crossover(rng, prev, sch, s); !c.Valid(s) {
					t.Fatalf("crossover on %v = %v is invalid", s, c)
				}
			}
			prev = sch
		}
	}
}

// TestCostModelFeaturesFinite: every admissible schedule must produce
// finite cost-model features (the log2 terms blow up on zero tiles, so
// this is the downstream guard on clamp's totality).
func TestCostModelFeaturesFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range tuneShapes() {
		for i := 0; i < 8; i++ {
			sch := clampSchedule(randomSchedule(rng, s), s)
			for j, f := range features(s, sch) {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("features(%v, %v)[%d] = %v", s, sch, j, f)
				}
			}
		}
	}
}
