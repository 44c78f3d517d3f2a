package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// The traced pass records spans from the benchmark's own files: around
// the calls it makes into each layer, and by middleware around each
// program handler. The program itself is not instrumented further.

// span is one recorded interval. Spans of one request share req; parent
// names the span of the same request that caused this one. A span whose
// layer was replayed directly after the request (not nested in time)
// still names the span it is attributed to.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name, req, parent string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, file string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("wrote %d spans to %s", len(spans), path)
	return nil
}

// durations returns, per request, the duration of its first span named
// name.
func (r *recorder) durations(name string) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if _, dup := out[s.Req]; !dup {
			out[s.Req] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// selfTimes returns each request's self time of the spans named name:
// the span's duration minus the durations of the spans attributed to
// it (same request, parent == name), floored at zero. Children nested
// in time and children replayed after the request count alike.
func (r *recorder) selfTimes(name string) []float64 {
	r.mu.Lock()
	own := make(map[string]int64)
	kids := make(map[string]int64)
	for _, s := range r.spans {
		switch {
		case s.Name == name:
			if _, dup := own[s.Req]; !dup {
				own[s.Req] = s.End - s.Start
			}
		case s.Parent == name:
			kids[s.Req] += s.End - s.Start
		}
	}
	r.mu.Unlock()
	out := make([]float64, 0, len(own))
	for req, d := range own {
		out = append(out, ms(time.Duration(max(d-kids[req], 0))))
	}
	return out
}

// values returns the durations of every span named name, in ms.
func (r *recorder) values(name string) []float64 {
	var out []float64
	for _, d := range r.durations(name) {
		out = append(out, ms(d))
	}
	return out
}

// budgetRow is one blocking step of a workload's layer budget.
type budgetRow struct {
	layer string
	ms    float64
	note  string
}

// printBudget prints the blocking-step budget against the measured p50:
// the rows plus the printed remainder sum to it exactly.
func printBudget(workload string, p50 float64, rows []budgetRow) float64 {
	logf("layer budget, %s: blocking steps against measured p50 %.3f ms", workload, p50)
	sum := 0.0
	for _, r := range rows {
		sum += r.ms
		logf("  %-22s %9.3f ms  %5.1f%%  %s", r.layer, r.ms, 100*r.ms/p50, r.note)
	}
	rem := p50 - sum
	logf("  %-22s %9.3f ms  %5.1f%%  (measured p50 minus the rows above)", "unattributed", rem, 100*rem/p50)
	return rem
}

// scrape reads a /metrics page.
func scrape(c *http.Client, url string) (*obs.Exposition, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return loadgen.ScrapeMetrics(ctx, c, url)
}

// sampleKey identifies a sample by name and labels.
func sampleKey(s obs.Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k, v := range s.Labels {
		keys = append(keys, k+"="+v)
	}
	sort.Strings(keys)
	return s.Name + "{" + strings.Join(keys, ",") + "}"
}

// delta returns after minus before, sample by sample (counters and
// histogram series; gauges come out meaningless and are not read).
func delta(before, after *obs.Exposition) *obs.Exposition {
	prev := make(map[string]float64, len(before.Samples))
	for _, s := range before.Samples {
		prev[sampleKey(s)] = s.Value
	}
	d := &obs.Exposition{Types: after.Types}
	for _, s := range after.Samples {
		s.Value -= prev[sampleKey(s)]
		d.Samples = append(d.Samples, s)
	}
	return d
}

// sum adds every sample named name.
func sum(e *obs.Exposition, name string) float64 {
	t := 0.0
	for _, s := range e.Find(name) {
		t += s.Value
	}
	return t
}

// mergeDeltas adds several expositions' samples (same metric layout).
func mergeDeltas(es ...*obs.Exposition) *obs.Exposition {
	acc := make(map[string]int)
	out := &obs.Exposition{Types: map[string]string{}}
	for _, e := range es {
		for k, v := range e.Types {
			out.Types[k] = v
		}
		for _, s := range e.Samples {
			k := sampleKey(s)
			if i, ok := acc[k]; ok {
				out.Samples[i].Value += s.Value
				continue
			}
			acc[k] = len(out.Samples)
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// stageMs is a server stage's latency quantile over a delta, in ms.
func stageMs(d *obs.Exposition, stage string, q float64) float64 {
	v, err := d.HistogramQuantile("seqserve_stage_latency_us", q, "stage", stage)
	if err != nil {
		return 0
	}
	return float64(v) / 1000
}

// serverLayer reads the internal/server per-layer metrics from a
// /metrics delta.
func serverLayer(d *obs.Exposition, m map[string]metric) {
	m["server.queue_p50_ms"] = metric{stageMs(d, "queue", 0.5), "ms"}
	m["server.queue_p95_ms"] = metric{stageMs(d, "queue", 0.95), "ms"}
	if b := sum(d, "seqserve_batches_total"); b > 0 {
		m["server.batch_jobs"] = metric{sum(d, "seqserve_batch_jobs_total") / b, "jobs"}
	}
	hits, miss, coal := sum(d, "seqserve_cache_hits_total"), sum(d, "seqserve_cache_misses_total"), sum(d, "seqserve_cache_coalesced_total")
	if t := hits + miss + coal; t > 0 {
		m["server.cache_hit_ratio"] = metric{hits / t, "share"}
	}
	m["server.coalesced"] = metric{coal, "count"}
	m["server.shed"] = metric{sum(d, "seqserve_shed_total"), "count"}
}

// perLayerNames lists every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"loadgen.late_ms", "ms"},
	{"net.rtt_us", "us"},
	{"server.handler_ms", "ms"},
	{"server.overhead_us", "us"},
	{"server.queue_p50_ms", "ms"},
	{"server.queue_p95_ms", "ms"},
	{"server.batch_jobs", "jobs"},
	{"server.cache_hit_ratio", "share"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"index.candidates_ms", "ms"},
	{"index.candidates", "count"},
	{"index.candidate_mcells", "Mcells"},
	{"index.build_s", "s"},
	{"align.prepare_us", "us"},
	{"align.rescore_ms", "ms"},
	{"align.rescore_mcells_s", "Mcells/s"},
	{"align.scan_gcups", "GCUPS"},
	{"align.scan_w1_gcups", "GCUPS"},
	{"align.rank_us", "us"},
	{"cluster.search_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.tries_per_line", "tries"},
	{"cluster.hedges_per_line", "tries"},
	{"cluster.retries_per_line", "tries"},
	{"snapshot.open_ms", "ms"},
	{"cluster.ready_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"budget.unattributed_ms", "ms"},
	{"model.ratio", "ratio"},
}

// layerResult fills every per-layer name missing from m with 0 and
// reports which ones the workload does not exercise.
func layerResult(workload string, m map[string]metric) map[string]metric {
	var idle []string
	for _, n := range perLayerNames {
		if _, ok := m[n.name]; !ok {
			m[n.name] = metric{0, n.unit}
			idle = append(idle, n.name)
		} else if m[n.name].Unit != n.unit {
			panic(fmt.Sprintf("perfbench: %s reported in %s, declared in %s", n.name, m[n.name].Unit, n.unit))
		}
	}
	if len(idle) > 0 {
		logf("not on %s's path (reported as 0): %s", workload, strings.Join(idle, " "))
	}
	return m
}
