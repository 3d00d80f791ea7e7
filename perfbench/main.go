// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks every output, and prints its metrics
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload rmat-delegate --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the same workload with spans, a counting comm.Comm
// decorator and the collective census switched on, and prints the
// per-layer metrics instead. See README.md in this directory for the
// workloads, the metrics and the layer → metric → workload table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// ranks is P, the number of rank goroutines every workload runs.
const ranks = 4

// modTol is the tolerance between a solver's reported modularity and the
// modularity recomputed from its membership (the core tests' checkResult).
const modTol = 1e-6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings, its check tally and its metrics.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dataDir  string // inputs written during set-up
	traceDir string // span dumps of traced runs

	attempted int
	failed    int
	metrics   map[string]metric
}

// attempt counts one operation or check; a non-nil err marks it failed.
func (r *run) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Printf("FAIL: %v\n", err)
	}
}

// check counts one check that passes when ok holds.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.attempt(err)
}

func (r *run) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// okFrac reports the share of attempted operations and checks that passed.
func (r *run) okFrac() {
	r.put("ok_frac", 1-float64(r.failed)/float64(r.attempted), "ratio")
}

var workloads = map[string]func(*run) error{
	"rmat-delegate": func(r *run) error { return runBatch(r, rmatDelegate) },
	"lfr-1d-oocore": func(r *run) error { return runBatch(r, lfrOutOfCore) },
}

func main() {
	workload := flag.String("workload", "", "workload name: rmat-delegate or lfr-1d-oocore")
	seed := flag.Int64("seed", 0, "workload seed (>= 0); the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the timed part measures")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	switch {
	case !ok:
		fatalf("unknown workload %q", *workload)
	case *seed < 0:
		fatalf("--seed %d, want >= 0", *seed)
	case *seconds < 1:
		fatalf("--seconds %d, want >= 1", *seconds)
	case *traceFlag != 0 && *traceFlag != 1:
		fatalf("--trace %d, want 0 or 1", *traceFlag)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		dataDir:  ".bench_build/data",
		traceDir: ".bench_build/trace",
		metrics:  make(map[string]metric),
	}
	for _, d := range []string{r.dataDir, r.traceDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s P=%d workload=%s seed=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		ranks, r.workload, r.seed, *traceFlag)
	if err := fn(r); err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	if r.attempted == 0 {
		fatalf("%s: nothing attempted", r.workload)
	}
	if !r.traced {
		r.okFrac()
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
