// Command benchmark is the repo's one benchmark (BENCHMARK.json at the
// root describes it; README.md beside this file explains it).
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload and prints one JSON result as the last line of
// standard output: every end-to-end metric untraced, every per-layer
// metric traced. Without --workload it runs every workload, untraced
// then traced, and prints every metric by name with its unit;
// --repeat N does that N times and says whether the repeats agree
// within each metric's bound; --smoke shortens every run to 2 s.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one run's arguments.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	tracer  *tracer // non-nil exactly when trace is set
}

// duration is the given share of the run's measuring time.
func (c runConfig) duration(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// runResult is what a workload hands back. metrics is nil when an
// operation failed: a run with wrong outputs has no numbers to report.
type runResult struct {
	attempted, failed int
	samples           int // headline latency samples behind the percentiles
	metrics           map[string]float64
}

// A workload sets itself up at least minSetups times per run, and a
// cheap set-up (30 ms for http_small) again until the set-ups fill
// setupFill or number maxSetups: the median of three 30 ms set-ups
// spread 0.14-0.19 over ten runs. setup_s is the median, and the last
// set-up is the one measured on.
const (
	minSetups = 3
	maxSetups = 15
	setupFill = time.Second
)

func medianSetup(setup func() error) (float64, error) {
	wakeHost()
	var secs []float64
	for start := time.Now(); len(secs) < minSetups || (len(secs) < maxSetups && time.Since(start) < setupFill); {
		d, err := timed(setup)
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// settle is called between a workload's set-up and checks and its
// measurement. The set-ups and a reference computation leave up to
// hundreds of MB of garbage, collected here and not during the timed
// calls; and set-up can be quiet enough (a child starting) to let the
// host doze again.
func settle() {
	runtime.GC()
	wakeHost()
}

// wakeHost spins one goroutine per benchThreads until together they
// finish about as fast as one alone. On the sizing host (a 2-vCPU VM)
// two busy threads share one core for about the first second after a
// quiet spell, which would otherwise land in whichever phase runs
// first — set-up on one run, the measurement on another.
func wakeHost() {
	const work = 2_000_000 // ~5 ms of dependent multiply-adds
	spin := func() {
		a, b := float32(1.0000001), float32(0.5)
		for i := 0; i < work; i++ {
			b = b*a + 1e-9
		}
		wakeSink.Store(b)
	}
	alone, _ := timed(func() error { spin(); return nil })
	for start, calm := time.Now(), 0; calm < 3 && time.Since(start) < 5*time.Second; {
		together, _ := timed(func() error {
			var wg sync.WaitGroup
			for g := 0; g < benchThreads; g++ {
				wg.Add(1)
				go func() { defer wg.Done(); spin() }()
			}
			wg.Wait()
			return nil
		})
		if float64(together) < 1.3*float64(alone) {
			calm++
		} else {
			calm = 0
		}
	}
}

// wakeSink keeps wakeHost's arithmetic observable.
var wakeSink atomic.Value

const outDir = "benchmark/out"

// resultLine is the driver's contract for the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples int // headline latency samples, for the human report only
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs workload w once and shapes its metrics to the declared
// set: every declared name present (0 where the workload does not
// exercise it), nothing undeclared.
func runOne(w workloadDef, cfg runConfig) (resultLine, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		cfg.tracer = newTracer()
	}
	res, err := w.run(cfg)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}, samples: res.samples}
	if !line.Correct {
		return line, fmt.Errorf("%s: %d of %d operations failed or returned wrong output", w.Name, res.failed, res.attempted)
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		line.Metrics[d.Name] = metricValue{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	for name := range res.metrics {
		if !declared[name] {
			return line, fmt.Errorf("%s: emitted undeclared metric %q", w.Name, name)
		}
	}
	if cfg.trace {
		if err := cfg.tracer.write(outDir, w.Name, cfg.seed, res.metrics); err != nil {
			return line, fmt.Errorf("%s: writing trace: %w", w.Name, err)
		}
	}
	return line, nil
}

func printMetrics(w workloadDef, defs []metricDef, line resultLine) {
	for _, d := range defs {
		fmt.Printf("%-14s %-34s %16.6g %s\n", w.Name, d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
}

// environment is what a result file records about where it was taken.
type environment struct {
	GoVersion  string              `json:"go_version"`
	NumCPU     int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Commit     string              `json:"commit"`
	Flags      map[string][]string `json:"ndserve_flags"`
}

func currentEnvironment() environment {
	commit := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit,
		Flags: map[string][]string{
			"http_small": smallServe.flags(),
			"http_mid":   midServe.flags(),
		},
	}
}

// runAll runs every workload untraced then traced, repeat times, and
// writes benchmark/out/result.json. With repeat > 1 it closes with the
// agreement table.
func runAll(seed uint64, seconds float64, repeat int, checkBounds bool) error {
	type runRecord struct {
		EndToEnd map[string]map[string]metricValue `json:"end_to_end"`
		PerLayer map[string]map[string]metricValue `json:"per_layer"`
	}
	var runs []runRecord
	for r := 0; r < repeat; r++ {
		rec := runRecord{EndToEnd: map[string]map[string]metricValue{}, PerLayer: map[string]map[string]metricValue{}}
		for _, w := range workloads {
			fmt.Printf("# run %d/%d: %s, seed %d, %.0f s untraced then traced\n", r+1, repeat, w.Name, seed+uint64(r), seconds)
			for _, trace := range []bool{false, true} {
				line, err := runOne(w, runConfig{seed: seed + uint64(r), seconds: seconds, trace: trace})
				if err != nil {
					return err
				}
				if trace {
					rec.PerLayer[w.Name] = line.Metrics
					printMetrics(w, perLayer, line)
				} else {
					rec.EndToEnd[w.Name] = line.Metrics
					printMetrics(w, endToEnd, line)
					fmt.Printf("%-14s %-34s %16d of %d\n", w.Name, "failed", line.Failed, line.Attempted)
					tail := "no percentile has ten samples beyond it"
					if p := supportedTail(line.samples); p > 0 {
						tail = fmt.Sprintf("p%g is the highest percentile with ten samples beyond it", p)
					}
					fmt.Printf("%-14s %-34s %16d (%s)\n", w.Name, "latency samples", line.samples, tail)
				}
			}
		}
		runs = append(runs, rec)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Environment environment `json:"environment"`
		Seconds     float64     `json:"seconds"`
		Runs        []runRecord `json:"runs"`
	}{currentEnvironment(), seconds, runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	if repeat < 2 {
		return nil
	}
	// With four or more runs the spread is the driver's: interquartile
	// range over median. With fewer it is the whole range.
	spreadOf, spreadName := quartileSpread, "(q3-q1)/median"
	if repeat < 4 {
		spreadName = "(max-min)/median"
		spreadOf = func(v []float64) float64 {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			return ratio(s[len(s)-1]-s[0], median(s))
		}
	}
	fmt.Printf("# agreement over %d runs: spread is %s\n", repeat, spreadName)
	disagree := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, rec := range runs {
				vals = append(vals, rec.EndToEnd[w.Name][d.Name].Value)
			}
			spread, verdict := spreadOf(vals), "agree"
			if !checkBounds {
				verdict = "-"
			} else if spread > d.Bound {
				verdict = "disagree"
				disagree++
			}
			fmt.Printf("%-14s %-18s %v %s spread %.3f bound %.2f %s\n", w.Name, d.Name, vals, d.Unit, spread, d.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between repeats beyond their bound", disagree)
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "run only this workload and print the driver's JSON line (default: all workloads, all metrics)")
	seed := flag.Uint64("seed", 1, "seed for every generated input and arrival schedule")
	seconds := flag.Float64("seconds", runSeconds, "measuring time of one run")
	trace := flag.Int("trace", 0, "with -workload: 1 runs traced and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run everything this many times and report agreement against the bounds")
	smoke := flag.Bool("smoke", false, "without -workload: 2 s per run, no bounds")
	flag.Parse()

	// Kill spawned servers on the way out of a signal too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopLiveServer()
		os.Exit(130)
	}()

	err := func() error {
		defer stopLiveServer()
		if *workload == "" {
			if *smoke {
				*seconds = 2
			}
			return runAll(*seed, *seconds, max(*repeat, 1), !*smoke)
		}
		w, ok := workloadByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		line, err := runOne(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
		if err != nil {
			return err
		}
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
