package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/cluster"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// routed_stream: one NDJSON /search/stream connection through
// cluster.NewRouter over two in-process seqserve shards booted from
// SEQSNAP artifacts, the router at its defaults, hedging included.
// Lines are indexed with Zipf popularity over the query list, so
// repeats hit the shards' result caches: fan-out, merge, stream framing
// and per-line shard POSTs carry the load, and shard work is small.

// routedSLO is the latency objective slo_qps counts lines against.
const routedSLO = 250 * time.Millisecond

// latSlices is how many consecutive slices of the stream p50_ms and
// p95_ms are taken over, reporting the median slice: a scheduling or
// GC episode then moves one slice, not the figure. Each slice holds
// 800 × seconds lines, so its p95 has 40 × seconds samples beyond it.
const latSlices = 10

// streamWindow is how many lines the client keeps unanswered.
const streamWindow = 4

const numShards = 2

func routedSpec(seconds int) inputSpec {
	return inputSpec{numSeqs: 2000, perFamily: 10, numQueries: seconds, numWarmup: 6}
}

// routedLines is the stream's length: Zipf draws over the query list.
func routedLines(seconds int) int { return 8000 * seconds }

// shardSet is the per-shard database slices and their indexes.
type shardSet struct {
	lo, hi []int
	dbs    []*bio.Database
	ixs    []*index.Index
	paths  []string
}

// rig is one booted cluster: shards behind taps, coordinator, router.
type rig struct {
	shards []*singleNode
	snaps  []*snapshot.Snapshot
	coord  *cluster.Coordinator
	router *httpNode
}

func (r *rig) close() {
	if r.router != nil {
		r.router.stop()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	for _, s := range r.shards {
		s.close()
	}
	for _, s := range r.snaps {
		s.Close()
	}
}

// bootRig sets the cluster up from the artifacts: snapshot.Open and
// server.New per shard, then cluster.New until Ready, then the router.
// It returns the per-shard open times and the wait for Ready.
func bootRig(ss *shardSet, numSeqs int) (r *rig, opens []float64, ready time.Duration, err error) {
	r = &rig{}
	smap := &cluster.ShardMap{Version: 1, NumSeqs: numSeqs}
	for i, path := range ss.paths {
		t0 := time.Now()
		snap, err := snapshot.Open(path, snapshot.OpenOptions{})
		if err != nil {
			r.close()
			return nil, nil, 0, err
		}
		opens = append(opens, ms(time.Since(t0)))
		r.snaps = append(r.snaps, snap)
		n, err := bootSingle(snap.DB, snap.Index, "shard.handler", "")
		if err != nil {
			r.close()
			return nil, nil, 0, err
		}
		r.shards = append(r.shards, n)
		smap.Shards = append(smap.Shards, cluster.Shard{Lo: ss.lo[i], Hi: ss.hi[i], Backends: []string{n.node.addr}})
	}
	if r.coord, err = cluster.New(smap, cluster.Config{}); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	t0 := time.Now()
	for !r.coord.Ready() {
		if time.Since(t0) > 30*time.Second {
			r.close()
			return nil, nil, 0, fmt.Errorf("cluster not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ready = time.Since(t0)
	if r.router, err = startHTTP(cluster.NewRouter(r.coord)); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	return r, opens, ready, nil
}

func runRouted(cfg runConfig) (*result, error) {
	in := makeInputs(cfg.seed, routedSpec(cfg.seconds))
	pick := zipfLines(cfg.seed^0x5eed, len(in.queries), routedLines(cfg.seconds))
	logf("inputs: %d sequences, %d residues, %d queries, %d stream lines", in.db.NumSeqs(), in.db.TotalResidues(), len(in.queries), len(pick))

	// Artifacts are written before timing starts.
	ss := &shardSet{}
	for s := 0; s < numShards; s++ {
		lo, hi := s*in.db.NumSeqs()/numShards, (s+1)*in.db.NumSeqs()/numShards
		db := bio.NewDatabase(in.db.Seqs[lo:hi])
		ix := index.Build(db, index.Options{})
		path := filepath.Join(cfg.workDir, fmt.Sprintf("shard%d.snap", s))
		if _, err := snapshot.Write(path, db, ix, snapshot.Manifest{Version: "perfbench", Tool: "perfbench"}); err != nil {
			return nil, err
		}
		defer os.Remove(path)
		ss.lo, ss.hi = append(ss.lo, lo), append(ss.hi, hi)
		ss.dbs, ss.ixs, ss.paths = append(ss.dbs, db), append(ss.ixs, ix), append(ss.paths, path)
	}

	// Set-up, setupReps times; the last rig serves.
	var r *rig
	var setups, opens, readies []float64
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		start := time.Now()
		var o []float64
		var ready time.Duration
		var err error
		if r, o, ready, err = bootRig(ss, in.db.NumSeqs()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, o...)
		readies = append(readies, ms(ready))
	}
	defer func() { r.close() }()
	logf("set-up: %d reps, snapshot.Open+server.New x%d+cluster.New until Ready %v s", setupReps, numShards, fmtList(setups))

	// The oracle: per-shard Searcher.Search, hit indexes offset by the
	// shard's lo, merged by align.MergeRanked. Untimed.
	want := make([][]align.Hit, len(in.queries))
	used := make([]bool, len(in.queries))
	for _, qi := range pick {
		used[qi] = true
	}
	p := align.PaperParams()
	searchers := make([]*index.Searcher, numShards)
	for s := range searchers {
		searchers[s] = index.NewSearcher(ss.ixs[s], ss.dbs[s], p, index.SearchOptions{})
	}
	for qi, q := range in.queries {
		if !used[qi] {
			continue
		}
		lists := make([][]align.Hit, numShards)
		for s, sr := range searchers {
			hits := sr.Search(q.res, align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK,
				MaxCandidates: index.DefaultMaxCandidates, Workers: cfg.procs})
			for i := range hits {
				hits[i].Index += ss.lo[s]
			}
			lists[s] = hits
		}
		want[qi] = align.MergeRanked(lists, func(h align.Hit) (int, int) { return h.Score, h.Index }, topK)
	}

	lines := make([][]byte, len(pick))
	for i, qi := range pick {
		b, err := json.Marshal(cluster.StreamRequest{ID: fmt.Sprintf("l%d", i),
			SearchRequest: server.SearchRequest{Query: in.queries[qi].text, K: topK}})
		if err != nil {
			return nil, err
		}
		lines[i] = append(b, '\n')
	}
	warm := func(r *rig) error {
		c := newClient(1, time.Minute)
		defer c.CloseIdleConnections()
		return warmUp(c, r.router.url, in.warmup, false)
	}
	if err := warm(r); err != nil {
		return nil, err
	}
	// Recall reads each distinct query's first served answer.
	served := make(map[int][]int)
	rss := startRSS()
	out, err := streamRun(r.router.url, "u", lines, streamWindow, func(i int, sl *streamLine) bool {
		qi := pick[i]
		if _, dup := served[qi]; !dup {
			served[qi] = hitIndexes(sl.Hits)
		}
		return lineOK(sl, want[qi])
	})
	if err != nil {
		return nil, err
	}

	e := &e2e{setupS: median(setups), rssMiB: rss.finish(), attempted: len(lines), wall: out.wall, lat: out.lat, latSlices: latSlices}
	for i, qi := range pick {
		if out.ok[i] {
			e.correct++
			e.cells += float64(len(in.queries[qi].res)) * float64(in.db.TotalResidues())
		}
	}
	for qi, q := range in.queries {
		if used[qi] {
			e.recallSum += in.recall(q, served[qi], topK)
			e.recallOver++
		}
	}
	e.inWall = e.correct
	e.sloQPS = goodput(out.lat, out.ok, routedSLO, out.wall)

	logf("stream: %d lines over %d distinct queries in %.3f s", len(lines), e.recallOver, out.wall.Seconds())
	if !cfg.trace {
		return e.result(), nil
	}
	m, err := tracedRouted(cfg, in, ss, pick, lines, want, out)
	if err != nil {
		return nil, err
	}
	m["snapshot.open_ms"] = metric{median(opens), "ms"}
	m["cluster.ready_ms"] = metric{median(readies), "ms"}
	res := e.result()
	res.Metrics = layerResult("routed_stream", m)
	return res, nil
}

// lineOK reports whether a stream answer is complete and the expected
// merged hit list.
func lineOK(sl *streamLine, want []align.Hit) bool {
	return sl.Complete && sameHits(sl.Hits, want)
}

// tracedRouted is the traced run: the stream again on a fresh cluster
// with the shards' handlers tapped, then the same lines' first half
// through Coordinator.Search directly on another fresh cluster, so both
// start from cold caches like the untraced stream.
func tracedRouted(cfg runConfig, in *inputs, ss *shardSet, pick []int, lines [][]byte, want [][]align.Hit, untraced *streamOutcome) (map[string]metric, error) {
	m := map[string]metric{}
	rec := newRecorder()
	r, _, _, err := bootRig(ss, in.db.NumSeqs())
	if err != nil {
		return nil, err
	}
	c := newClient(1, time.Minute)
	defer c.CloseIdleConnections()
	if err := warmUp(c, r.router.url, in.warmup, false); err != nil {
		r.close()
		return nil, err
	}
	for _, s := range r.shards {
		s.tap.rec.Store(rec)
	}
	scrapeAll := func() (rt []*obs.Exposition, err error) {
		for _, url := range append([]string{r.router.url}, r.shardURLs()...) {
			e, err := scrape(c, url)
			if err != nil {
				return nil, err
			}
			rt = append(rt, e)
		}
		return rt, nil
	}
	before, err := scrapeAll()
	if err != nil {
		r.close()
		return nil, err
	}
	traced, err := streamRun(r.router.url, "t", lines, streamWindow, func(i int, sl *streamLine) bool {
		return lineOK(sl, want[pick[i]])
	})
	if err != nil {
		r.close()
		return nil, err
	}
	after, err := scrapeAll()
	r.close()
	if err != nil {
		return nil, err
	}
	for i, ok := range traced.ok {
		if !ok {
			return nil, fmt.Errorf("traced stream line %d answered wrong", i)
		}
	}
	rd := delta(before[0], after[0])
	nl := float64(len(lines))
	m["cluster.tries_per_line"] = metric{sum(rd, "router_backend_tries_total") / nl, "tries"}
	m["cluster.hedges_per_line"] = metric{sum(rd, "router_backend_hedges_total") / nl, "tries"}
	m["cluster.retries_per_line"] = metric{sum(rd, "router_backend_retries_total") / nl, "tries"}
	var shardDeltas []*obs.Exposition
	for s := 1; s < len(after); s++ {
		shardDeltas = append(shardDeltas, delta(before[s], after[s]))
	}
	serverLayer(mergeDeltas(shardDeltas...), m)
	handler := rec.durations("shard.handler")
	m["server.handler_ms"] = metric{median(rec.values("shard.handler")), "ms"}
	slowest := func(prefix string) (time.Duration, bool) {
		var worst time.Duration
		for s := 0; s < numShards; s++ {
			d, ok := handler[fmt.Sprintf("%s#s%d", prefix, s)]
			if !ok {
				return 0, false
			}
			worst = max(worst, d)
		}
		return worst, true
	}
	var shardMs, lineMs []float64
	for i := range lines {
		lineMs = append(lineMs, ms(traced.lat[i]))
		if d, ok := slowest(fmt.Sprintf("t#%d", i+1)); ok {
			shardMs = append(shardMs, ms(d))
		}
	}

	// Direct pass: Coordinator.Search per line, window-many at once.
	r, _, _, err = bootRig(ss, in.db.NumSeqs())
	if err != nil {
		return nil, err
	}
	if err := warmUp(c, r.router.url, in.warmup, false); err != nil {
		r.close()
		return nil, err
	}
	for _, s := range r.shards {
		s.tap.rec.Store(rec)
	}
	half := len(pick) / 2
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < streamWindow; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < half; i = int(next.Add(1) - 1) {
				q := in.queries[pick[i]]
				id := fmt.Sprintf("d#%d", i+1)
				ctx := cluster.WithRequestID(context.Background(), id)
				start := time.Now()
				resp, _, aerr := r.coord.Search(ctx, &cluster.Request{SearchRequest: server.SearchRequest{Query: q.text, K: topK}})
				rec.add("cluster.search", id, "", start, time.Now())
				if aerr != nil || !resp.Complete || !sameHits(resp.Hits, want[pick[i]]) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.close()
	if failed.Load() > 0 {
		return nil, fmt.Errorf("%d direct Coordinator.Search answers were wrong", failed.Load())
	}
	handler = rec.durations("shard.handler")
	search := rec.durations("cluster.search")
	var searchMs, selfMs []float64
	for i := 0; i < half; i++ {
		id := fmt.Sprintf("d#%d", i+1)
		searchMs = append(searchMs, ms(search[id]))
		if d, ok := slowest(id); ok {
			selfMs = append(selfMs, ms(search[id]-d))
		}
	}
	m["cluster.search_ms"] = metric{median(searchMs), "ms"}
	m["cluster.self_ms"] = metric{median(selfMs), "ms"}

	// Index work of each distinct query on each shard, and the kernel
	// rate the cost model divides by.
	var cands, candMs []float64
	var missCells float64
	seen := make(map[int]bool)
	for _, qi := range pick {
		if seen[qi] {
			continue
		}
		seen[qi] = true
		q := in.queries[qi]
		total, res := 0, 0
		for s := 0; s < numShards; s++ {
			sr := index.NewSearcher(ss.ixs[s], ss.dbs[s], align.PaperParams(), index.SearchOptions{})
			t0 := time.Now()
			cand := sr.Candidates(q.res, index.DefaultMaxCandidates)
			candMs = append(candMs, ms(time.Since(t0)))
			for _, ci := range cand {
				res += ss.dbs[s].Seqs[ci].Len()
			}
			total += len(cand)
		}
		cands = append(cands, float64(total))
		missCells += float64(len(q.res)) * float64(res)
	}
	m["index.candidates_ms"] = metric{median(candMs), "ms"}
	m["index.candidates"] = metric{mean(cands), "count"}
	m["index.candidate_mcells"] = metric{missCells / float64(len(seen)) / 1e6, "Mcells"}
	gcups, w1 := scanRates(ss.dbs[0], in.queries[:min(3, len(in.queries))], cfg.procs)
	m["align.scan_gcups"] = metric{gcups, "GCUPS"}
	m["align.scan_w1_gcups"] = metric{w1, "GCUPS"}

	tracedP50 := median(lineMs)
	m["trace.overhead"] = metric{tracedP50 / median(durationsMs(untraced.lat)), "ratio"}
	rem := printBudget("routed_stream", tracedP50, []budgetRow{
		{"shard.handler", median(shardMs), "slowest shard's handler per line (tap)"},
		{"cluster.self", median(selfMs), "direct Coordinator.Search minus its slowest shard handler"},
	})
	m["budget.unattributed_ms"] = metric{rem, "ms"}
	predicted := missCells / (w1 * 1e9) / float64(cfg.procs)
	m["model.ratio"] = metric{traced.wall.Seconds() / predicted, "ratio"}
	logf("cost model: %d distinct queries x %.2f Mcells of candidates over both shards ÷ (align.scan_w1_gcups %.3f x %d CPUs) = %.2f s of kernel; measured stream %.2f s (x%.2f)",
		len(seen), missCells/float64(len(seen))/1e6, w1, cfg.procs, predicted, traced.wall.Seconds(), traced.wall.Seconds()/predicted)
	if err := rec.write(cfg.workDir, fmt.Sprintf("spans-routed_stream-%d.jsonl", cfg.seed)); err != nil {
		return nil, err
	}
	return m, nil
}

func (r *rig) shardURLs() []string {
	var out []string
	for _, s := range r.shards {
		out = append(out, s.node.url)
	}
	return out
}
