package main

import (
	"fmt"
	"time"

	"repro/internal/align"
)

// scan_exhaustive: a closed loop of nproc clients sending exhaustive
// POST /search with the default kernel. Every query is distinct, so the
// sharded whole-database scan in internal/align does nearly all the
// work and the index, cache and router sit idle.

// scanSLO is the latency objective slo_qps counts answers against on
// this closed loop (a batch caller's patience, not an interactive one's).
const scanSLO = 1 * time.Second

func scanSpec(seconds int) inputSpec {
	return inputSpec{numSeqs: 250, perFamily: 6, numQueries: 30 * seconds, numWarmup: 6}
}

func runScan(cfg runConfig) (*result, error) {
	in := makeInputs(cfg.seed, scanSpec(cfg.seconds))
	logf("inputs: %d sequences, %d residues, %d queries", in.db.NumSeqs(), in.db.TotalResidues(), len(in.queries))

	n, ix, setupS, buildS, err := setupSingle(in.db)
	if err != nil {
		return nil, err
	}
	defer func() { n.close() }()

	// The oracle: align.SearchDB on the same database, untimed.
	p := align.PaperParams()
	want := make([][]align.Hit, len(in.queries))
	bodies := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		want[i] = align.SearchDB(p, q.res, in.db, align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK, Workers: cfg.procs})
		bodies[i] = searchBody(q, true)
	}

	client := newClient(cfg.procs, time.Minute)
	defer client.CloseIdleConnections()
	if err := warmUp(client, n.node.url, in.warmup, true); err != nil {
		return nil, err
	}
	rss := startRSS()
	run := closedPass(client, n.node.url, in.queries, bodies, want, cfg.procs, nil, "")

	e := &e2e{setupS: setupS, rssMiB: rss.finish(), attempted: len(in.queries), wall: run.wall, lat: run.lat}
	for i, q := range in.queries {
		if run.ok[i] {
			e.correct++
			e.cells += float64(len(q.res)) * float64(in.db.TotalResidues())
		}
		e.recallSum += in.recall(q, hitIndexes(run.hits[i]), topK)
		e.recallOver++
	}
	e.inWall = e.correct
	e.sloQPS = goodput(run.lat, run.ok, scanSLO, run.wall)
	if !cfg.trace {
		return e.result(), nil
	}

	// Traced pass: a fresh server (so no answer comes from the first
	// pass's cache) over the first half of the list, then the align
	// layers replayed directly for the same queries.
	half := in.queries[:len(in.queries)/2]
	n.close()
	fresh, err := bootSingle(in.db, ix, "server.handler", "client")
	if err != nil {
		return nil, err
	}
	n = fresh
	if err := warmUp(client, n.node.url, in.warmup, true); err != nil {
		return nil, err
	}
	rec := newRecorder()
	n.tap.rec.Store(rec)
	before, err := scrape(client, n.node.url)
	if err != nil {
		return nil, err
	}
	traced := closedPass(client, n.node.url, half, bodies, want, cfg.procs, rec, "t-")
	after, err := scrape(client, n.node.url)
	if err != nil {
		return nil, err
	}
	n.tap.rec.Store(nil)
	for i, q := range half {
		req := "t-" + q.id
		hits := align.SearchDB(p, q.res, in.db, align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK, Workers: cfg.procs,
			Observe: func(stage string, d time.Duration) {
				end := time.Now() // Observe runs as each stage ends
				rec.add("align."+stage, req, "server.handler", end.Add(-d), end)
			}})
		if !sameAlign(hits, want[i]) {
			return nil, fmt.Errorf("replayed scan of %s disagrees with the oracle", q.id)
		}
	}
	m := map[string]metric{}
	d := delta(before, after)
	serverLayer(d, m)
	m["index.build_s"] = metric{buildS, "s"}
	gcups, w1 := scanRates(in.db, half[:min(6, len(half))], cfg.procs)
	m["align.scan_gcups"] = metric{gcups, "GCUPS"}
	m["align.scan_w1_gcups"] = metric{w1, "GCUPS"}

	net := rec.selfTimes("client")
	handler := rec.values("server.handler")
	prepare, scanT, rank := median(rec.values("align.prepare")), median(rec.values("align.scan")), median(rec.values("align.rank"))
	m["net.rtt_us"] = metric{median(net) * 1000, "us"}
	m["server.handler_ms"] = metric{median(handler), "ms"}
	m["server.overhead_us"] = metric{median(rec.selfTimes("server.handler")) * 1000, "us"}
	m["align.prepare_us"] = metric{prepare * 1000, "us"}
	m["align.rank_us"] = metric{rank * 1000, "us"}

	tracedP50 := median(durationsMs(traced.lat))
	untracedP50 := median(durationsMs(run.lat[:len(half)]))
	m["trace.overhead"] = metric{tracedP50 / untracedP50, "ratio"}
	queue := m["server.queue_p50_ms"].Value
	rem := printBudget("scan_exhaustive", tracedP50, []budgetRow{
		{"net (client-handler)", median(net), "loopback round trip outside the handler"},
		{"server.queue", queue, "seqserve_stage_latency_us{stage=queue} p50"},
		{"align.prepare", prepare, "direct SearchDB, Observe"},
		{"align.scan", scanT, fmt.Sprintf("direct SearchDB at %d workers, alone", cfg.procs)},
		{"align.rank", rank, "direct SearchDB, Observe"},
	})
	m["budget.unattributed_ms"] = metric{rem, "ms"}

	// Cost model: a request's cells at the one-worker kernel rate, spread
	// over the server's workers and shared by the closed loop's clients.
	var cells float64
	for _, q := range half {
		cells += float64(len(q.res)) * float64(in.db.TotalResidues())
	}
	cells /= float64(len(half))
	clients, workers := float64(cfg.procs), float64(cfg.procs)
	predicted := clients * cells / (workers * w1 * 1e9) * 1000
	m["model.ratio"] = metric{tracedP50 / predicted, "ratio"}
	logf("cost model: %.1f Mcells/request ÷ align.scan_w1_gcups %.3f = %.2f ms of one worker; %d clients sharing %d workers predict p50 %.2f ms; measured %.2f ms (x%.2f)",
		cells/1e6, w1, cells/(w1*1e9)*1000, cfg.procs, cfg.procs, predicted, tracedP50, tracedP50/predicted)
	if err := rec.write(cfg.workDir, fmt.Sprintf("spans-scan_exhaustive-%d.jsonl", cfg.seed)); err != nil {
		return nil, err
	}
	r := e.result()
	r.Metrics = layerResult("scan_exhaustive", m)
	return r, nil
}
