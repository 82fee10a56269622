// Command perfbench is the repository benchmark: it drives the public
// entry points of the protocol, driver, sim and history packages on
// three workloads, checks that their outputs are correct, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// or every workload, untraced then traced, with bash perfbench/all.sh.
//
// With --trace 0 a run repeats the workload's cells for --seconds (each
// repetition on its own seed derived from --seed) and reports setup_s,
// txns_per_s and peak_rss_mb. txns_per_s is timed in wall-clock time,
// less the time the host stole from the guest (see maxStolen), so that
// it sees the sharded engine's parallel speedup; setup_s is process CPU
// time (see cpuNow). With --trace 1 it repeats a layer pass instead: each
// cell runs once untraced, then again with spans recorded around the
// calls into each layer, and the per-layer metrics plus
// trace.overhead_frac are reported; the spans are written as Chrome
// trace-event JSON to --trace-file.
//
// A run fails — exit code 1, "correct": false and no metrics — when a
// correctness gate trips: a certified cell (or load-sharded's certified
// history slice) whose ride-along verdict is a refutation or disagrees
// with the batch re-solve, a replayed session whose verdict differs from
// the ride-along one, incomplete transactions, a replace cell without a
// replacement some commit lived through, sharded W1 and W2 runs with
// different digests, a digest that differs from the one pinned in
// digests.json for the seed, or a naivefast victim cell that passes the
// verdict gate.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed digests.json
var pinsJSON []byte

// pins holds the digests pinned for the default and held-out seeds.
type pins struct {
	DefaultSeed int64                        `json:"default_seed"`
	HeldOutSeed int64                        `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var pin pins
	if err := json.Unmarshal(pinsJSON, &pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		return 2
	}
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", pin.DefaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", pin.HeldOutSeed))
	seconds := flag.Int("seconds", 30, "how long to repeat the workload's cells")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced layer pass with per-layer metrics")
	traceFile := flag.String("trace-file", "", "Chrome trace-event JSON written by --trace 1 (default .bench_build/trace-<workload>-seed<seed>.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	var w *benchWorkload
	for _, cand := range workloads() {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	env := stamp()
	envLine, _ := json.Marshal(env) // plain struct of strings and ints
	fmt.Printf("env %s\n", envLine)

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var (
		out    outcome
		err    error
		tracer *tracer
	)
	if w.certified {
		err = teeth(*w)
	}
	if err == nil {
		if *trace == 0 {
			out, err = measure(*w, *seed, deadline)
		} else {
			tracer = newTracer()
			out, err = measureLayers(*w, *seed, deadline, tracer)
		}
	}
	if err == nil {
		err = checkPin(pin, w.name, *seed, out.digest)
	}
	for k, m := range out.metrics {
		if err == nil && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			err = fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	if err == nil && tracer != nil {
		path := *traceFile
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		}
		if err = tracer.writeChrome(path, env); err == nil {
			fmt.Printf("trace %s (%d spans)\n", path, len(tracer.spans))
		}
	}
	if err == nil && *memProfile != "" {
		err = writeHeapProfile(*memProfile)
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		printResult(res)
		return 1
	}
	fmt.Printf("digest %s seed=%d %s\n", w.name, *seed, out.digest)
	for _, l := range out.digestLines {
		fmt.Printf("  %s\n", l)
	}
	fmt.Printf("failed_frac %.6g (%d of %d transactions rejected, incomplete or in a failed cell)\n",
		float64(out.failed)/float64(res.Attempted), out.failed, res.Attempted)
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %.6g %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	res.Correct = true
	res.Metrics = out.metrics
	printResult(res)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func printResult(r result) {
	b, _ := json.Marshal(r) // cannot fail: run rejects NaN and infinite metrics
	fmt.Println(string(b))
}

// outcome is what a measured or traced run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	digest            string
	digestLines       []string
}

// checkPin compares the run's digest with the one pinned for its seed.
func checkPin(p pins, workload string, seed int64, got string) error {
	want, ok := p.Digests[workload][strconv.FormatInt(seed, 10)]
	if ok && want != got {
		return fmt.Errorf("digest %s at seed %d, pinned %s: the simulated schedule changed", got, seed, want)
	}
	return nil
}

// measure repeats the workload's cells until the deadline (at least
// once) and reports the end-to-end metrics. Per cell it takes the median
// set-up and run time over the repetitions, and the peak resident set
// is the median of the per-repetition peaks: a repetition that draws an
// unusually costly seed, or a burst of host contention, does not move
// the result.
func measure(w benchWorkload, seed int64, deadline time.Time) (outcome, error) {
	var out outcome
	rss := startRSS()
	defer rss.close()
	setups := make([][]float64, len(w.cells))
	walls := make([][]float64, len(w.cells))
	committed := make([][]float64, len(w.cells))
	var peaks []float64
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		s := repSeed(seed, r)
		rss.reset()
		for i, c := range w.cells {
			cr, err := runChecked(w, c, s, &out)
			if err != nil {
				return out, err
			}
			if r == 0 {
				out.digestLines = append(out.digestLines, digestLine(c.proto, cr.rep))
			}
			setups[i] = append(setups[i], cr.setup.Seconds())
			walls[i] = append(walls[i], cr.wall.Seconds())
			committed[i] = append(committed[i], float64(cr.rep.Committed))
		}
		peaks = append(peaks, float64(rss.reset())/(1<<20))
	}
	out.digest = digestOf(out.digestLines)
	var setup, wall, txns float64
	for i := range w.cells {
		setup += median(setups[i])
		wall += median(walls[i])
		txns += median(committed[i])
	}
	peak := median(peaks)
	if peak == 0 {
		return out, fmt.Errorf("peak RSS: /proc/self/statm unreadable")
	}
	out.metrics = map[string]metric{
		"setup_s":     {setup, "s"},
		"txns_per_s":  {txns / wall, "1/s"},
		"peak_rss_mb": {peak, "MB"},
	}
	return out, nil
}

// median returns the median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envStamp records where a result was measured.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision the binary was built from, "unknown"
	// outside a git checkout.
	Commit string `json:"commit"`
}

func stamp() envStamp {
	e := envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	return e
}
