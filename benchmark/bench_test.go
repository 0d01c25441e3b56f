package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ndirect/internal/nn"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3} // unsorted on purpose: percentile must not need or leave order
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", s, c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want the mean of the middle two, 2.5", got)
	}
}

func TestSampleCountRules(t *testing.T) {
	// A percentile is reportable with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{200, 95, 10}, {199, 95, 9}, {1000, 99, 10}, {20, 50, 10}, {8, 95, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 0}, {20, 50}, {199, 50}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, d = 100.0, 20 * time.Second
	a, b := poissonSchedule(7, rate, d), poissonSchedule(7, rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, d)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 expected arrivals, standard deviation ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in %v at %g/s, want about %g", n, d, rate, rate*d.Seconds())
	}
	for i, at := range a {
		if at < 0 || at >= d || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, at, d)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Due at 10 ms, sent 4 ms late because both connections were busy,
	// answered 6 ms after that: the user waited 10 ms, the server took 6.
	s := sample{due: ms(10), sent: ms(14), done: ms(20), ok: true}
	if got := s.latencyMs(); got != 10 {
		t.Errorf("latency = %g ms, want 10 from the due time", got)
	}
	if got := s.serviceMs(); got != 6 {
		t.Errorf("service = %g ms, want 6 from the send", got)
	}
	if got := s.lateMs(); got != 4 {
		t.Errorf("late = %g ms, want 4", got)
	}
	failed := sample{due: ms(10), sent: ms(10), done: ms(11)}
	if got, want := failed.latencyMs(), float64(requestTimeout/time.Millisecond); got != want {
		t.Errorf("a failed request's latency = %g ms, want the timeout %g so it misses every limit", got, want)
	}
	sum := summarize([]sample{s, failed, {due: ms(0), sent: ms(0), done: ms(30), ok: true}})
	if sum.sent != 3 || sum.ok != 2 || sum.failed != 1 {
		t.Errorf("summarize: sent %d ok %d failed %d, want 3 2 1", sum.sent, sum.ok, sum.failed)
	}
	if len(sum.latency) != 3 || len(sum.service) != 2 {
		t.Errorf("summarize kept %d latencies and %d service times, want 3 (failures count) and 2", len(sum.latency), len(sum.service))
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	infer := tr.add("serve.Registry.Infer", 0, 1, at(0), at(10))
	forward := tr.add("nn.Network.TryForward", infer, 1, at(20), at(27)) // measured as its own call, later
	tr.add("core.conv1.TryExecutePacked", forward, 1, at(30), at(34))
	tr.add("core.dwsep.TryExecutePacked", forward, 1, at(40), at(42))
	self := selfTimes(tr.spans)
	want := map[int]time.Duration{1: 3 * time.Millisecond, 2: time.Millisecond, 3: 4 * time.Millisecond, 4: 2 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	var nilTracer *tracer
	if id := nilTracer.add("x", 0, 0, at(0), at(1)); id != 0 {
		t.Errorf("a nil tracer recorded span %d", id)
	}
}

// benchmarkJSON mirrors BENCHMARK.json's exact keys.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []jsonNameWhy `json:"workloads"`
	EndToEnd   []jsonMetric  `json:"end_to_end"`
	PerLayer   []jsonLayer   `json:"per_layer"`
}

type jsonNameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func declaredBenchmark() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonNameWhy{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayer{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestNamesMatchBenchmarkJSON holds the program's workload and metric
// tables and BENCHMARK.json to each other, and both to the driver's
// limits on names, units and counts. UPDATE_BENCHMARK_JSON=1 rewrites
// the file from the tables.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := declaredBenchmark()
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "1" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the tables in spec.go differ (UPDATE_BENCHMARK_JSON=1 go test ./benchmark rewrites the file)\nfile:   %+v\ntables: %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, '_', '.', '-' starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not 1-16 of letters, digits, '_', '/', '%%', '.', '-'", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, better lower and a bound")
	}
	// Beyond its measuring time a run costs 0.5 to 10 s of linking,
	// set-ups and checks, 4 s on average over the workloads (README.md);
	// 8 s leaves room for a slow spell of the host.
	if total := 4 + 22*len(workloads); total*(runSeconds+8) > 3420 {
		t.Errorf("%d driver runs of %d s plus ~8 s of set-up and checks each exceed the 3420 s cap", total, runSeconds)
	}
}

// TestOracleMatchesServedLayers pins the replicated generator: a fixed
// seed must keep producing the documented [-3, 3] integer stream, and
// the separable model's expected output must take the depthwise ReLU.
func TestOracleMatchesServedLayers(t *testing.T) {
	spec := modelSpec{Seed: 5, ReLU: true, Shape: &tinyShape, Separable: true}
	x := tinyShape.shape().NewInput()
	fillInts(x, 9)
	for i, v := range x.Data {
		if v < -3 || v > 3 || v != float32(int(v)) {
			t.Fatalf("fillInts element %d = %g, want an integer in [-3, 3]", i, v)
		}
	}
	want := expectedOutput(spec, x)
	for i, v := range want.Data {
		if v < 0 || v != float32(int64(v)) {
			t.Fatalf("expected output element %d = %g, want a non-negative integer after the final ReLU", i, v)
		}
	}
	// The layers the server runs must agree with the oracle bit for bit.
	got, err := buildNet("t", spec).TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: benchThreads, Reuse: true}, x)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dims, want.Dims) || !reflect.DeepEqual(got.Data, want.Data) {
		t.Errorf("nn forward of the separable model differs from the oracle: dims %v vs %v", got.Dims, want.Dims)
	}
}
