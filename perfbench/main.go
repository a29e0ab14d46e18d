// Command perfbench is guava's benchmark: seeded, closed-loop workloads over
// the mixed reference study, each driven by one caller goroutine through the
// layers' public functions, in-process. It prints every end-to-end metric by
// name with its unit, checks the program's outputs, and ends with one JSON
// line. With --trace 1 it also runs a traced phase and prints the per-layer
// metrics instead. See README.md in this directory.
//
//	bash perfbench/run.sh --workload study-run --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"guava/internal/obs"
)

// bench is one workload. The harness sets it up several times (timing each),
// warms it up, then calls step in a closed loop for the run's time.
type bench interface {
	// setup builds the whole system state from the seed, replacing any
	// earlier state.
	setup(seed int64) error
	// warmOps is how many untimed ops run before the timed phase.
	warmOps() int
	// step performs caller op number op and records its latencies. A non-nil
	// error counts the op as failed.
	step(ctx context.Context, tr *tracer, op int64) error
	// reset drops the recorded latencies (after warm-up, between phases).
	reset()
	// units is how many throughput units (runs, mutations, extracts) the
	// recorded ops completed, and busyMs the time spent inside the program
	// doing them, the caller's own checks excluded.
	units() int
	busyMs() float64
	// endToEnd returns the workload's own end-to-end metrics, keyed by the
	// name the result line reports them under. rates holds the throughput of
	// each block of about blockMs of busy time.
	endToEnd(rates *dist) []e2e
	// layers returns the per-layer metrics: times from the traced phase's
	// spans, exact counts from delta, the obs.Default counter deltas of the
	// untraced phase, which completed units throughput units.
	layers(tr *tracer, delta map[string]int64, units int64) []metric
	// counts returns exact counts of the last phase, printed for drift.
	counts(delta map[string]int64) []string
	// finish runs the end-of-run checks and returns what was wrong. It runs
	// before layers, so the checks' own timings can be reported.
	finish(ctx context.Context, tr *tracer) []string
	close()
}

// e2e is an end-to-end metric under its workload name, plus the name the
// result line reports it under ("" when it is printed only). Every workload
// fills every name BENCHMARK.json lists, each with its own operation, and
// BENCHMARK.json fixes the unit. A name listed under per_layer goes to the
// traced run's result line instead.
type e2e struct {
	metric
	as string
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric names
// and units its result line must carry.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// inUnit converts a time between ms and us; other units pass through.
func inUnit(v float64, from, to string) float64 {
	switch {
	case from == "us" && to == "ms":
		return v / 1000
	case from == "ms" && to == "us":
		return v * 1000
	}
	return v
}

const (
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 5
	// outDir, in the checkout, holds temp state and span files.
	outDir = ".bench_build"
	// blockMs is the busy time over which one throughput sample is taken:
	// long enough to span many ops, so a single slow op cannot decide it.
	blockMs = 1000
)

func main() {
	name := flag.String("workload", "", "study-run | refresh-tick | serve-extract")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = add a traced phase and report the per-layer metrics")
	flag.Parse()

	mk, ok := map[string]func(string) bench{
		"study-run":     newStudyRun,
		"refresh-tick":  newRefreshTick,
		"serve-extract": newServeExtract,
	}[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload study-run|refresh-tick|serve-extract --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	b := mk(outDir)
	line, correct, err := run(b, sp, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	b.close()
	if err != nil {
		fail(err)
	}
	fmt.Println(line)
	if !correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run drives one workload end to end and returns the JSON result line.
func run(b bench, sp *spec, name string, seed int64, d time.Duration, traced bool) (line string, correct bool, err error) {
	ctx := context.Background()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d %s\n",
		name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())

	setups, err := timeSetup(setupReps, func() error { return b.setup(seed) })
	if err != nil {
		return "", false, fmt.Errorf("setup: %w", err)
	}
	var op int64
	for i := 0; i < b.warmOps(); i++ {
		op++
		if err := b.step(ctx, nil, op); err != nil {
			return "", false, fmt.Errorf("warm-up op %d: %w", op, err)
		}
	}

	// Untraced phase: the end-to-end figures.
	b.reset()
	before := counters()
	runtime.GC()
	r0 := readRT()
	attempted, failed, rates := phase(ctx, b, nil, d, &op)
	r1 := readRT()
	delta := counterDelta(before, counters())
	live := liveHeapMB()
	units := b.units()
	rate := float64(units) / (b.busyMs() / 1000)

	e2es := []e2e{
		{pct("setup_s", "s", setups, 0.5, 1e-3), "setup_s"},
		{scalar("live_heap_mb", "MB", live), "live_heap_mb"},
		{scalar("alloc_kb_per_op", "KB", float64(r1.allocBytes-r0.allocBytes)/float64(max(units, 1))/1024), "alloc_kb_per_op"},
		{scalar("fail_ratio", "ratio", float64(failed)/float64(max(attempted, 1))), ""},
	}
	e2es = append(e2es, b.endToEnd(rates)...)
	fmt.Println("end-to-end:")
	for _, m := range e2es {
		fmt.Println(m.metric)
	}
	fmt.Println("exact counts:")
	fmt.Printf("  ops=%d units=%d failed=%d allocs_per_op=%.1f\n", attempted, units, failed,
		float64(r1.allocObjs-r0.allocObjs)/float64(max(units, 1)))
	for _, c := range b.counts(delta) {
		fmt.Println("  " + c)
	}

	untraced := map[string]metric{}
	for _, m := range e2es {
		if m.as != "" {
			untraced[m.as] = m.metric
		}
	}
	pick := func(want specMetric) (jsonMetric, bool) {
		m, ok := untraced[want.Name]
		return jsonMetric{Value: inUnit(m.value, m.unit, want.Unit), Unit: want.Unit}, ok
	}
	metrics := map[string]jsonMetric{}
	for _, want := range sp.EndToEnd {
		m, ok := pick(want)
		if !ok {
			return "", false, fmt.Errorf("workload does not report end-to-end metric %s", want.Name)
		}
		metrics[want.Name] = m
	}

	if traced {
		b.reset()
		runtime.GC()
		tr := newTracer()
		a, f, _ := phase(ctx, b, tr, d, &op)
		attempted, failed = attempted+a, failed+f
		tracedRate := float64(b.units()) / (b.busyMs() / 1000)
		wrong := b.finish(ctx, tr)
		layers := b.layers(tr, delta, int64(units))
		layers = append(layers,
			scalar("runtime.gc_cpu_frac", "ratio", gcFrac(r0, r1)),
			scalar("obs.trace_overhead_frac", "ratio", rate/tracedRate-1))
		fmt.Println("per-layer (traced phase):")
		metrics = map[string]jsonMetric{}
		for _, m := range layers {
			fmt.Println(m)
			metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		// A tail moved out of the end-to-end list comes from the untraced
		// phase; a layer this workload's ops never reach reads 0.
		for _, want := range sp.PerLayer {
			if _, ok := metrics[want.Name]; ok {
				continue
			}
			if m, ok := pick(want); ok {
				metrics[want.Name] = m
			} else {
				metrics[want.Name] = jsonMetric{Value: 0, Unit: want.Unit}
			}
		}
		if len(metrics) != len(sp.PerLayer) {
			return "", false, fmt.Errorf("workload reports per-layer metrics BENCHMARK.json does not list")
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return "", false, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		return result(wrong, attempted, failed, metrics)
	}
	return result(b.finish(ctx, nil), attempted, failed, metrics)
}

// phase calls step in a closed loop until d has passed. It returns the
// throughput, in units per second, of each block of blockMs busy time.
func phase(ctx context.Context, b bench, tr *tracer, d time.Duration, op *int64) (attempted, failed int, rates *dist) {
	rates = &dist{}
	units, busy := b.units(), b.busyMs()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		*op++
		attempted++
		if err := b.step(ctx, tr, *op); err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", *op, err)
			}
		}
		if b.busyMs()-busy >= blockMs {
			rates.addMs(float64(b.units()-units) / ((b.busyMs() - busy) / 1000))
			units, busy = b.units(), b.busyMs()
		}
	}
	if rates.n() == 0 && b.busyMs() > busy { // a run shorter than one block
		rates.addMs(float64(b.units()-units) / ((b.busyMs() - busy) / 1000))
	}
	return attempted, failed, rates
}

func result(wrong []string, attempted, failed int, metrics map[string]jsonMetric) (string, bool, error) {
	for _, w := range wrong {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG: %s\n", w)
	}
	correct := len(wrong) == 0 && failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	return string(line), correct, err
}

// counters snapshots the process-wide obs.Default counters, where relstore
// and (for unobserved contexts) etl and serve record.
func counters() map[string]int64 {
	m := map[string]int64{}
	for _, s := range obs.Default.Snapshot() {
		if s.Kind == "counter" {
			m[s.Name] = int64(s.Value)
		}
	}
	return m
}

func counterDelta(a, b map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range b {
		if v != a[k] {
			d[k] = v - a[k]
		}
	}
	return d
}

// sumPrefix adds up the counters whose names start with prefix.
func sumPrefix(delta map[string]int64, prefix string) int64 {
	var n int64
	for k, v := range delta {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// listPrefix renders the counters under prefix as name=value, sorted.
func listPrefix(delta map[string]int64, prefix string) string {
	var parts []string
	for k, v := range delta {
		if strings.HasPrefix(k, prefix) {
			parts = append(parts, fmt.Sprintf("%s=%d", strings.TrimPrefix(k, prefix), v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
