// Command bench is the repository's benchmark: four end-to-end workloads
// driven through the engine's public functions, each measured untraced for
// the end-to-end metrics and traced for the per-layer ones, with every
// answer checked against the naive Proposition 2.2 scan. README.md in this
// directory says what the numbers mean; ../BENCHMARK.json declares them.
//
//	bash bench/run.sh -workload t2_warm [-seed N] [-seconds S] [-trace 1]
//	bash bench/run.sh -all
//	bash bench/run.sh -stability
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured time per run: the query phase plus the commit phase")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes <out>/trace-<workload>.json")
		all       = flag.Bool("all", false, "run every workload")
		stability = flag.Bool("stability", false, "two interleaved sets of 3 runs per workload, compared against the bounds")
		short     = flag.Bool("short", false, "test scale (N = 500)")
		out       = flag.String("out", "bench/out", "directory for traces and the file workload's database")
		printDoc  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printDoc {
		doc, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}

	// One process on both cores of the box; the write_mix reader and writer
	// get one each.
	runtime.GOMAXPROCS(2)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, short: *short, outDir: *out, log: os.Stdout}
	fmt.Printf("bench: seed=%d seconds=%g trace=%v %s nproc=%d GOMAXPROCS=%d commit=%s\n",
		cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gitCommit())

	var run []spec
	switch {
	case *all || *stability:
		run = specs
	default:
		sp, ok := specByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		run = []spec{sp}
	}
	ok := true
	for _, sp := range run {
		var err error
		good := false
		if *stability {
			good, err = stabilityCheck(sp, cfg)
		} else {
			good, err = runAndPrint(sp, cfg)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		ok = ok && good
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

// gitCommit is the commit the binary was built from, when the go command
// stamped one (it does inside a git work tree).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAndPrint runs one workload and prints every metric of the run's kind
// by name, then the result line the driver reads. It reports whether every
// operation succeeded and agreed with the oracle.
func runAndPrint(sp spec, cfg config) (bool, error) {
	fmt.Fprintf(cfg.log, "workload %s: %s\n", sp.name, sp.why)
	res, err := runWorkload(sp, cfg)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := pick(defs, res.metrics)
	if err != nil {
		return false, err
	}
	for _, d := range defs {
		fmt.Fprintf(cfg.log, "  %-34s %16.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(cfg.log, "  %-34s %16.6g ratio (%d failed of %d attempted)\n", "fail_share",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if res.tracePath != "" {
		fmt.Fprintf(cfg.log, "trace: %s\n", res.tracePath)
	}
	line, err := json.Marshal(resultLine{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(cfg.log, "%s\n", line)
	return res.failed == 0, nil
}

// stabilityCheck runs the same code as two interleaved sets, A B A B A B,
// and compares the sets' medians per end-to-end metric: a gap beyond the
// metric's bound means the bound is tighter than this box's noise.
func stabilityCheck(sp spec, cfg config) (bool, error) {
	cfg.trace = false
	quiet := cfg
	quiet.log = io.Discard
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < 6; i++ {
		res, err := runWorkload(sp, quiet)
		if err != nil {
			return false, err
		}
		if res.failed > 0 {
			return false, fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
		}
		for _, d := range endToEnd {
			sets[i%2][d.Name] = append(sets[i%2][d.Name], res.metrics[d.Name])
		}
	}
	ok := true
	fmt.Fprintf(cfg.log, "stability %s: 3 runs per set, seed %d\n", sp.name, cfg.seed)
	fmt.Fprintf(cfg.log, "  %-18s %14s %14s %8s %7s  %s\n", "metric", "median A", "median B", "gap", "bound", "verdict")
	for _, d := range endToEnd {
		a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
		gap := math.Abs(a-b) / math.Min(a, b)
		verdict := "ok"
		if gap > d.Bound {
			verdict = "EXCEEDS BOUND"
			ok = false
		}
		fmt.Fprintf(cfg.log, "  %-18s %14.6g %14.6g %7.2f%% %6.0f%%  %s\n", d.Name, a, b, 100*gap, 100*d.Bound, verdict)
	}
	return ok, nil
}
