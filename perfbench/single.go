package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/index"
	"repro/internal/server"
)

// topK is the k every request asks for (the server's default).
const topK = server.DefaultTopK

// setupReps is how many times a run sets the program up; setup_s is the
// median, and the last set-up serves.
const setupReps = 5

// singleNode is one in-process seqserve behind the benchmark's tap.
type singleNode struct {
	srv  *server.Server
	tap  *tap
	node *httpNode
}

func (n *singleNode) close() {
	n.node.stop()
	n.srv.Close()
}

// bootSingle hands db and ix to the program and serves it on loopback
// behind a tap recording spans named name, attributed to parent.
func bootSingle(db *bio.Database, ix *index.Index, name, parent string) (*singleNode, error) {
	srv, err := server.New(db, ix, server.Config{})
	if err != nil {
		return nil, err
	}
	t := &tap{next: srv.Handler(), name: name, parent: parent}
	node, err := startHTTP(t)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &singleNode{srv: srv, tap: t, node: node}, nil
}

// setupSingle sets the program up setupReps times from the generated
// database: index.Build, then server.New and its listener. It returns
// the last set-up, still serving, with the index it built, and the
// median set-up and build times.
func setupSingle(db *bio.Database) (n *singleNode, ix *index.Index, setupS, buildS float64, err error) {
	var setups, builds []float64
	for r := 0; r < setupReps; r++ {
		if n != nil {
			n.close()
		}
		runtime.GC() // garbage of earlier set-ups is not this one's cost
		start := time.Now()
		ix = index.Build(db, index.Options{})
		built := time.Now()
		n, err = bootSingle(db, ix, "server.handler", "client")
		if err != nil {
			return nil, nil, 0, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, built.Sub(start).Seconds())
	}
	logf("set-up: %d reps, index.Build+server.New %v s", setupReps, fmtList(setups))
	return n, ix, median(setups), median(builds), nil
}

// fmtList renders a short list of figures.
func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// closedRun is the outcome of a closed-loop pass over a query list.
type closedRun struct {
	lat  []time.Duration
	ok   []bool
	hits [][]server.Hit
	wall time.Duration
}

// closedPass sends every query from clients closed-loop senders and
// checks each answer against want. With rec set it records a "client"
// span per request; idPrefix keeps request ids unique across passes.
func closedPass(c *http.Client, url string, qs []query, bodies [][]byte, want [][]align.Hit, clients int, rec *recorder, idPrefix string) *closedRun {
	r := &closedRun{lat: make([]time.Duration, len(qs)), ok: make([]bool, len(qs)), hits: make([][]server.Hit, len(qs))}
	r.wall = closedLoop(len(qs), clients, func(i int) {
		id := idPrefix + qs[i].id
		start := time.Now()
		resp, err := postSearch(c, url, bodies[i], id)
		end := time.Now()
		r.lat[i] = end.Sub(start)
		if rec != nil {
			rec.add("client", id, "", start, end)
		}
		if err == nil {
			r.hits[i] = resp.Hits
			r.ok[i] = sameHits(resp.Hits, want[i])
		}
	})
	return r
}

// warmUp sends the warm-up queries untimed and unchecked-for-metrics;
// a failure there still fails the run.
func warmUp(c *http.Client, url string, qs []query, exhaustive bool) error {
	for _, q := range qs {
		if _, err := postSearch(c, url, searchBody(q, exhaustive), "warm-"+q.id); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// e2e collects the end-to-end figures common to every workload.
type e2e struct {
	setupS     float64
	correct    int
	attempted  int
	inWall     int     // correct answers within wall, the qps numerator
	cells      float64 // Σ query_len × database residues over correct answers
	wall       time.Duration
	lat        []time.Duration // the latency samples p50/p95 come from
	latSlices  int             // > 1: p50/p95 are medians over this many consecutive slices of lat
	sloQPS     float64
	recallSum  float64
	recallOver int
	rssMiB     float64
}

func (e *e2e) metrics() map[string]metric {
	secs := e.wall.Seconds()
	lat := durationsMs(e.lat)
	slices := max(e.latSlices, 1)
	var p50s, p95s []float64
	for s := 0; s < slices; s++ {
		part := lat[s*len(lat)/slices : (s+1)*len(lat)/slices]
		p50s = append(p50s, quantile(part, 0.5))
		p95s = append(p95s, quantile(part, 0.95))
	}
	p50, p95 := median(p50s), median(p95s)
	per := len(lat) / slices
	logf("samples: %d latencies in %d slice(s) (each slice's p95 has %d beyond it), %d attempted, %d correct, measured %.3f s",
		len(lat), slices, per-int(0.95*float64(per)), e.attempted, e.correct, secs)
	if slices > 1 {
		logf("slice p50 %v ms, p95 %v ms", fmtList(p50s), fmtList(p95s))
	}
	return map[string]metric{
		"setup_s":     {e.setupS, "s"},
		"qps":         {float64(e.inWall) / secs, "1/s"},
		"gcups":       {e.cells / secs / 1e9, "GCUPS"},
		"p50_ms":      {p50, "ms"},
		"p95_ms":      {p95, "ms"},
		"slo_qps":     {e.sloQPS, "1/s"},
		"ok_frac":     {float64(e.correct) / float64(e.attempted), "share"},
		"recall_at_k": {e.recallSum / float64(max(e.recallOver, 1)), "share"},
		"peak_rss_mb": {e.rssMiB, "MiB"},
	}
}

func (e *e2e) result() *result {
	return &result{Correct: e.correct == e.attempted, Attempted: e.attempted, Failed: e.attempted - e.correct, Metrics: e.metrics()}
}

// goodput is the rate of correct answers within limit over wall.
func goodput(lat []time.Duration, ok []bool, limit, wall time.Duration) float64 {
	n := 0
	for i, d := range lat {
		if ok[i] && d <= limit {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// replayRescore runs the indexed path's layers directly for q, the way
// the server composes them: candidates from the seed index, exact
// rescoring of the candidates with the server's kernel split across
// workers (one Scratch each), then rank. It records one span per layer,
// attributed to the handler of request req, and returns the rescoring's
// summed per-worker busy time next to its cells.
func replayRescore(s *index.Searcher, db *bio.Database, q query, scrs []*align.Scratch, rec *recorder, req string) (hits []align.Hit, cand []int, cells float64, busy time.Duration) {
	p := align.PaperParams()
	t0 := time.Now()
	cand = append([]int(nil), s.Candidates(q.res, index.DefaultMaxCandidates)...)
	sort.Ints(cand)
	cand = uniq(cand)
	t1 := time.Now()
	pq := align.PrepareQuery(p, q.res, align.KernelSWAR)
	scores := make([]int, len(cand))
	busyNs := make([]time.Duration, len(scrs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, scr := range scrs {
		wg.Add(1)
		go func(w int, scr *align.Scratch) {
			defer wg.Done()
			start := time.Now()
			for i := int(next.Add(1) - 1); i < len(cand); i = int(next.Add(1) - 1) {
				scores[i] = scr.ScorePrepared(pq, db.Seqs[cand[i]].Residues)
			}
			busyNs[w] = time.Since(start)
		}(w, scr)
	}
	wg.Wait()
	t2 := time.Now()
	hits = align.RankHits(db.Seqs, cand, scores, 1, topK)
	t3 := time.Now()
	if rec != nil {
		rec.add("index.candidates", req, "server.handler", t0, t1)
		rec.add("align.rescore", req, "server.handler", t1, t2)
		rec.add("align.rank", req, "server.handler", t2, t3)
	}
	res := 0
	for _, c := range cand {
		res += db.Seqs[c].Len()
	}
	for _, b := range busyNs {
		busy += b
	}
	return hits, cand, float64(len(q.res)) * float64(res), busy
}

func uniq(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// scanRates times align.SearchDB over the whole database for qs, at
// workers and at one worker, and returns both rates in GCUPS.
func scanRates(db *bio.Database, qs []query, workers int) (gcups, w1 float64) {
	p := align.PaperParams()
	rate := func(w int) float64 {
		var cells float64
		var busy time.Duration
		for _, q := range qs {
			cfg := align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK, Workers: w,
				Observe: func(stage string, d time.Duration) {
					if stage == align.StageScan {
						busy += d
					}
				}}
			align.SearchDB(p, q.res, db, cfg)
			cells += float64(len(q.res)) * float64(db.TotalResidues())
		}
		return cells / busy.Seconds() / 1e9
	}
	return rate(workers), rate(1)
}
