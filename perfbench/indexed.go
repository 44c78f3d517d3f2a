package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/index"
)

// indexed_open: an open loop on a fixed arrival schedule sending indexed
// POST /search at a short ladder of offered rates, from nproc senders.
// Every query is distinct, so the result cache never hits: the seed
// filter, per-candidate rescoring and per-request HTTP and admission
// carry the load, and the whole-database scan is idle.

// indexedSLO is the p95 latency limit slo_qps is judged against.
const indexedSLO = 100 * time.Millisecond

// ladder is the offered-rate ladder in requests per second, and
// refStep the step whose latencies p50_ms and p95_ms report. Each step
// offers share × seconds of arrivals; the reference step's 25 × seconds
// requests give p95 at least ten samples beyond it.
var ladder = []struct{ rate, share float64 }{
	{5, 0.4},  // light load: the SLO must hold
	{10, 2.5}, // reference: about 40% of the 2-CPU capacity
	{40, 0.2}, // past capacity: the backlog must grow
}

const refStep = 1

// stepLen is how many requests step s offers.
func stepLen(s, seconds int) int {
	return int(ladder[s].rate * ladder[s].share * float64(seconds))
}

func indexedSpec(seconds int) inputSpec {
	n := 0
	for s := range ladder {
		n += stepLen(s, seconds)
	}
	return inputSpec{numSeqs: 2000, perFamily: 10, numQueries: n, numWarmup: 10}
}

// stepRun is the outcome of one ladder step.
type stepRun struct {
	rate      float64
	qs        []query
	want      [][]align.Hit
	late, lat []time.Duration
	ok        []bool
	hits      [][]int
	wall      time.Duration
}

func (s *stepRun) correct() int {
	n := 0
	for _, ok := range s.ok {
		if ok {
			n++
		}
	}
	return n
}

// backlogGrew reports whether sends fell further behind schedule over
// the step: mean lateness of its last quarter against its first.
func (s *stepRun) backlogGrew() bool {
	q := len(s.late) / 4
	if q == 0 {
		return false
	}
	mean := func(ds []time.Duration) time.Duration {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return t / time.Duration(len(ds))
	}
	return mean(s.late[len(s.late)-q:])-mean(s.late[:q]) > indexedSLO/2
}

// openStep offers qs at rate from senders goroutines and checks every
// answer. With rec set it records, per request, the lateness of its
// send, the client round trip and (through the tap) the handler.
func openStep(n *singleNode, cfg runConfig, rate float64, qs []query, want [][]align.Hit, rec *recorder, idPrefix string) *stepRun {
	client := newClient(cfg.procs, time.Minute)
	defer client.CloseIdleConnections()
	bodies := make([][]byte, len(qs))
	due := make([]time.Duration, len(qs))
	for i, q := range qs {
		bodies[i] = searchBody(q, false)
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	s := &stepRun{rate: rate, qs: qs, want: want, ok: make([]bool, len(qs)), hits: make([][]int, len(qs))}
	start := time.Now().Add(10 * time.Millisecond)
	s.late, s.lat, s.wall = openLoop(start, due, cfg.procs, func(i int) {
		id := idPrefix + qs[i].id
		sent := time.Now()
		resp, err := postSearch(client, n.node.url, bodies[i], id)
		if rec != nil {
			end := time.Now()
			rec.add("request", id, "", start.Add(due[i]), end)
			rec.add("loadgen.late", id, "request", start.Add(due[i]), sent)
			rec.add("client", id, "request", sent, end)
		}
		if err == nil {
			s.hits[i] = hitIndexes(resp.Hits)
			s.ok[i] = sameHits(resp.Hits, want[i])
		}
	})
	p95 := quantile(durationsMs(s.lat), 0.95)
	logf("step %.0f/s: %d requests, p50 %.2f ms, p95 %.2f ms, send lateness p95 %.2f ms, correct %d, backlog grew %v",
		rate, len(qs), median(durationsMs(s.lat)), p95, quantile(durationsMs(s.late), 0.95), s.correct(), s.backlogGrew())
	return s
}

func runIndexed(cfg runConfig) (*result, error) {
	in := makeInputs(cfg.seed, indexedSpec(cfg.seconds))
	logf("inputs: %d sequences, %d residues, %d queries, ladder %v (reference %.0f/s)",
		in.db.NumSeqs(), in.db.TotalResidues(), len(in.queries), ladder, ladder[refStep].rate)

	n, ix, setupS, buildS, err := setupSingle(in.db)
	if err != nil {
		return nil, err
	}
	defer func() { n.close() }()

	// The oracle: index.Searcher.Search on the same index, untimed, one
	// searcher per CPU.
	p := align.PaperParams()
	searcher := index.NewSearcher(ix, in.db, p, index.SearchOptions{})
	oracle := func(qs []query) [][]align.Hit {
		want := make([][]align.Hit, len(qs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < cfg.procs; w++ {
			wg.Add(1)
			go func(s *index.Searcher) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
					want[i] = s.Search(qs[i].res, align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK,
						MaxCandidates: index.DefaultMaxCandidates, Workers: 1})
				}
			}(searcher.Clone())
		}
		wg.Wait()
		return want
	}
	steps := make([][]query, len(ladder))
	off := 0
	for s := range ladder {
		steps[s] = in.queries[off : off+stepLen(s, cfg.seconds)]
		off += len(steps[s])
	}
	if cfg.trace {
		// The traced run offers the first half of the reference step
		// alone, untraced and then traced.
		steps[refStep] = steps[refStep][:len(steps[refStep])/2]
	}

	warmClient := newClient(cfg.procs, time.Minute)
	defer warmClient.CloseIdleConnections()
	if err := warmUp(warmClient, n.node.url, in.warmup, false); err != nil {
		return nil, err
	}
	e := &e2e{setupS: setupS}
	rss := startRSS()
	var ref *stepRun
	for s, step := range ladder {
		if cfg.trace && s != refStep {
			continue
		}
		rate := step.rate
		run := openStep(n, cfg, rate, steps[s], oracle(steps[s]), nil, "")
		correct := run.correct()
		e.attempted += len(run.qs)
		e.correct += correct
		for i, q := range run.qs {
			e.recallSum += in.recall(q, run.hits[i], topK)
			e.recallOver++
		}
		if correct == len(run.qs) && !run.backlogGrew() && quantile(durationsMs(run.lat), 0.95) <= ms(indexedSLO) {
			e.sloQPS = float64(correct) / run.wall.Seconds() // the rate this step sustained
		}
		if s == refStep {
			ref = run
		}
	}
	e.wall, e.lat, e.rssMiB = ref.wall, ref.lat, rss.finish()

	for i, q := range ref.qs {
		if ref.ok[i] {
			e.cells += float64(len(q.res)) * float64(in.db.TotalResidues())
		}
	}
	e.inWall = ref.correct() // qps and gcups count the reference step alone, like p50/p95
	if !cfg.trace {
		return e.result(), nil
	}

	// Traced pass: a fresh server over the reference step, then the
	// index and align layers replayed directly for the same queries.
	n.close()
	fresh, err := bootSingle(in.db, ix, "server.handler", "client")
	if err != nil {
		return nil, err
	}
	n = fresh
	if err := warmUp(warmClient, n.node.url, in.warmup, false); err != nil {
		return nil, err
	}
	rec := newRecorder()
	n.tap.rec.Store(rec)
	before, err := scrape(warmClient, n.node.url)
	if err != nil {
		return nil, err
	}
	traced := openStep(n, cfg, ladder[refStep].rate, ref.qs, ref.want, rec, "t-")
	after, err := scrape(warmClient, n.node.url)
	if err != nil {
		return nil, err
	}
	n.tap.rec.Store(nil)

	scrs := make([]*align.Scratch, cfg.procs)
	for i := range scrs {
		scrs[i] = align.NewScratch()
	}
	var cands, cellsList, rescoreRates []float64
	for i, q := range ref.qs {
		hits, cand, cells, busy := replayRescore(searcher, in.db, q, scrs, rec, "t-"+q.id)
		if !sameAlign(hits, ref.want[i]) {
			return nil, fmt.Errorf("replayed indexed search of %s disagrees with the oracle", q.id)
		}
		cands = append(cands, float64(len(cand)))
		cellsList = append(cellsList, cells)
		rescoreRates = append(rescoreRates, cells/busy.Seconds()/1e6)
	}
	rescore := rec.values("align.rescore")
	m := map[string]metric{}
	serverLayer(delta(before, after), m)
	m["index.build_s"] = metric{buildS, "s"}
	gcups, w1 := scanRates(in.db, ref.qs[:min(3, len(ref.qs))], cfg.procs)
	m["align.scan_gcups"] = metric{gcups, "GCUPS"}
	m["align.scan_w1_gcups"] = metric{w1, "GCUPS"}
	late := rec.values("loadgen.late")
	net := rec.selfTimes("client")
	candMs, rankMs := median(rec.values("index.candidates")), median(rec.values("align.rank"))
	m["loadgen.late_ms"] = metric{quantile(late, 0.95), "ms"}
	m["net.rtt_us"] = metric{median(net) * 1000, "us"}
	m["server.handler_ms"] = metric{median(rec.values("server.handler")), "ms"}
	m["server.overhead_us"] = metric{median(rec.selfTimes("server.handler")) * 1000, "us"}
	m["index.candidates_ms"] = metric{candMs, "ms"}
	m["index.candidates"] = metric{mean(cands), "count"}
	m["index.candidate_mcells"] = metric{mean(cellsList) / 1e6, "Mcells"}
	m["align.rescore_ms"] = metric{median(rescore), "ms"}
	m["align.rescore_mcells_s"] = metric{median(rescoreRates), "Mcells/s"}
	m["align.rank_us"] = metric{rankMs * 1000, "us"}

	tracedP50 := median(durationsMs(traced.lat))
	m["trace.overhead"] = metric{tracedP50 / median(durationsMs(ref.lat)), "ratio"}
	rem := printBudget("indexed_open", tracedP50, []budgetRow{
		{"loadgen.late", median(late), "send behind schedule (p50)"},
		{"net (client-handler)", median(net), "loopback round trip outside the handler"},
		{"server.queue", m["server.queue_p50_ms"].Value, "seqserve_stage_latency_us{stage=queue} p50"},
		{"index.candidates", candMs, "direct Searcher.Candidates"},
		{"align.rescore", median(rescore), fmt.Sprintf("direct PrepareQuery+ScorePrepared over the candidates, %d workers", cfg.procs)},
		{"align.rank", rankMs, "direct RankHits"},
	})
	m["budget.unattributed_ms"] = metric{rem, "ms"}
	predicted := median(cellsList) / (w1 * 1e9) / float64(cfg.procs) * 1000
	m["model.ratio"] = metric{median(rescore) / predicted, "ratio"}
	logf("cost model: %.2f Mcells of candidates ÷ (align.scan_w1_gcups %.3f x %d workers) = %.2f ms; measured align.rescore %.2f ms (x%.2f; %.0f Mcells/s per worker on candidates), p50 %.2f ms",
		median(cellsList)/1e6, w1, cfg.procs, predicted, median(rescore), median(rescore)/predicted, median(rescoreRates), tracedP50)
	if err := rec.write(cfg.workDir, fmt.Sprintf("spans-indexed_open-%d.jsonl", cfg.seed)); err != nil {
		return nil, err
	}
	r := e.result()
	r.Metrics = layerResult("indexed_open", m)
	return r, nil
}
