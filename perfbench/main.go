// Command perfbench is the serving benchmark: from a workload seed it
// generates a SwissProt-shaped database with planted homolog families
// and a fixed query list, boots the search service in-process on those
// inputs, drives it over loopback HTTP, checks every answer against the
// layers called directly, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced pass gives the per-layer ones and the layer budget.
// NOTES.md explains the workloads and what each metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload scan_exhaustive --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	workDir string
	procs   int // sender goroutines and connections: never more than nproc
}

// workload runs one named workload and returns its result.
type workload func(cfg runConfig) (*result, error)

var workloads = map[string]workload{
	"scan_exhaustive": runScan,
	"indexed_open":    runIndexed,
	"routed_stream":   runRouted,
}

func main() {
	name := flag.String("workload", "", "workload to run: scan_exhaustive, indexed_open or routed_stream")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "nominal length of the measured phase; sizes the fixed query list")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead of end-to-end ones")
	workDir := flag.String("work-dir", ".bench_build/perfbench", "directory for the shard snapshot files and the traced run's spans")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir,
		procs: runtime.NumCPU()}
	logf("workload %s seed %d seconds %d trace %v GOMAXPROCS %d nproc %d",
		*name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), cfg.procs)
	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// logf prints a human-readable report line. Report lines go to standard
// output ahead of the result line, prefixed with "# ".
func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// rssMiB reads one field (VmRSS, VmHWM) of /proc/self/status in MiB.
func rssMiB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler tracks the peak resident memory of the measured phase:
// VmRSS sampled every rssEvery. Set-up and oracle garbage is returned to
// the OS before it starts, so the figure is the serving process's own.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

const rssEvery = 50 * time.Millisecond

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: rssMiB("VmRSS")}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = max(s.peak, rssMiB("VmRSS"))
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return max(s.peak, rssMiB("VmRSS"))
}
