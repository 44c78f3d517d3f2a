package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/server"
)

// httpNode is one handler served on a loopback listener.
type httpNode struct {
	hs   *http.Server
	addr string
	url  string
	done chan struct{}
}

func startHTTP(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := &httpNode{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	n.url = "http://" + n.addr
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return n, nil
}

// stop shuts the listener down and waits for the serve loop to end.
func (n *httpNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx)
	<-n.done
}

// tap is the benchmark's middleware around a program handler: with a
// recorder armed it records one span per request, named name, keyed by
// the request's X-Request-Id and attributed to the caller's span named
// parent; disarmed it is a pass-through.
type tap struct {
	next   http.Handler
	name   string
	parent string
	rec    atomic.Pointer[recorder]
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	if rec == nil || r.URL.Path == "/metrics" || r.URL.Path == "/readyz" {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	rec.add(t.name, r.Header.Get("X-Request-Id"), t.parent, start, time.Now())
}

// newClient returns a client holding at most conns connections.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// searchBody marshals one POST /search request.
func searchBody(q query, exhaustive bool) []byte {
	b, err := json.Marshal(server.SearchRequest{Query: q.text, K: topK, Exhaustive: exhaustive})
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return b
}

// postSearch sends one POST /search and decodes a 200 answer; any other
// status is an error.
func postSearch(c *http.Client, url string, body []byte, reqID string) (*server.SearchResponse, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/search", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &sr, nil
}

// sameHits reports whether a served hit list is the expected one:
// same length, and the same sequence, index and score at every rank.
func sameHits(got []server.Hit, want []align.Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Score != want[i].Score || got[i].ID != want[i].Seq.ID {
			return false
		}
	}
	return true
}

// sameAlign compares two hit lists from the layers.
func sameAlign(a, b []align.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func hitIndexes(hs []server.Hit) []int {
	out := make([]int, len(hs))
	for i, h := range hs {
		out[i] = h.Index
	}
	return out
}

// closedLoop runs do(i) for every i in [0, n) from clients goroutines,
// each sending its next request only once its previous one answered.
// It returns the wall time from the first send to the last answer.
func closedLoop(n, clients int, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends request i at start+due[i], whatever the server's pace,
// from senders goroutines. A request whose due time passes while every
// sender is busy goes out late; late[i] records by how much, and lat[i]
// is timed from the due time, so a stall also counts against the
// requests queued behind it. It returns the wall time from start to the
// last answer.
func openLoop(start time.Time, due []time.Duration, senders int, do func(i int)) (late, lat []time.Duration, wall time.Duration) {
	late = make([]time.Duration, len(due))
	lat = make([]time.Duration, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				late[i] = time.Since(at)
				do(i)
				lat[i] = time.Since(at)
			}
		}()
	}
	wg.Wait()
	return late, lat, time.Since(start)
}

// streamLine decodes any line of a routed /search/stream answer: a
// result, a per-line error or the terminal line.
type streamLine struct {
	cluster.StreamResult
	Error    string `json:"error"`
	Terminal bool   `json:"terminal"`
}

// streamOutcome is what one stream run returned, by line position.
type streamOutcome struct {
	ok   []bool
	lat  []time.Duration
	wall time.Duration
}

// streamRun sends lines over one POST /search/stream connection, keeping
// at most window of them unanswered, and hands each answer to check as
// it arrives, from one goroutine. Line i carries id "l<i>"; reqID names
// the connection, so the program's per-line request ids are
// reqID#<i+1>.
func streamRun(url, reqID string, lines [][]byte, window int, check func(i int, sl *streamLine) bool) (*streamOutcome, error) {
	out := &streamOutcome{ok: make([]bool, len(lines)), lat: make([]time.Duration, len(lines))}
	answered := make([]bool, len(lines))
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/search/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Request-Id", reqID)

	slots := make(chan struct{}, window)
	stop := make(chan struct{})
	sentNs := make([]atomic.Int64, len(lines))
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		defer pw.Close()
		for i, l := range lines {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			sentNs[i].Store(time.Since(start).Nanoseconds())
			if _, err := pw.Write(l); err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		pr.Close()
		wg.Wait()
	}()

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("opening stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		now := time.Since(start)
		var sl streamLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			return nil, fmt.Errorf("decoding stream line: %w", err)
		}
		if sl.Terminal {
			out.wall = now
			return out, nil
		}
		i, err := strconv.Atoi(sl.ID[min(1, len(sl.ID)):])
		if err != nil || i < 0 || i >= len(lines) || answered[i] {
			return nil, fmt.Errorf("stream answered unknown line id %q", sl.ID)
		}
		answered[i] = true
		out.lat[i] = now - time.Duration(sentNs[i].Load())
		out.ok[i] = sl.Error == "" && check(i, &sl)
		<-slots
	}
	return nil, fmt.Errorf("stream ended without a terminal line: %v", sc.Err())
}
