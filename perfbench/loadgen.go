package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aipan/internal/engine"
)

// lgSpec is the load generator's input, written by the serving process.
// The generator is open-loop: arrivals follow a seeded Poisson schedule
// whatever the server does, and each request is timed from when it was
// due, so a stall is charged to every request queued behind it.
type lgSpec struct {
	URL       string    `json:"url"`
	Seed      int64     `json:"seed"`
	Conns     int       `json:"conns"`
	StartAt   int64     `json:"start_at_unix_nano"`
	LimitMs   float64   `json:"limit_ms"`
	Phases    []lgPhase `json:"phases"`
	Domains   []string  `json:"domains"` // Zipf rank order
	Sectors   []string  `json:"sectors"`
	Aspects   []string  `json:"aspects"`
	Labels    []string  `json:"labels"`
	Outcomes  []string  `json:"outcomes"`
	Questions []string  `json:"questions"`
	Events    bool      `json:"events"`
}

// lgPhase is one phase of load: open-loop Poisson arrivals at Rate, or,
// with Rate 0, a closed loop in which each connection sends its next
// request as soon as the last one returns.
type lgPhase struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate"`
	Seconds float64 `json:"seconds"`
}

// lgPhaseReport summarises one phase. Latencies are milliseconds from
// the request's due time to its last body byte; a failed request counts
// as missing any latency limit.
type lgPhaseReport struct {
	Name         string             `json:"name"`
	Rate         float64            `json:"rate"`
	Sent         int                `json:"sent"`
	OK           int                `json:"ok"`
	Goodput      float64            `json:"goodput"` // closed loop: requests answered within the limit per second, median over 0.5 s windows
	Seconds      float64            `json:"seconds"`
	Conns        int                `json:"conns"`
	Failed       int                `json:"failed"`
	NotModified  int                `json:"not_modified"`
	Statuses     map[string]int     `json:"statuses"`
	P50Ms        float64            `json:"p50_ms"`
	P99Ms        float64            `json:"p99_ms"`
	RouteP50Ms   map[string]float64 `json:"route_p50_ms"`
	RouteP99Ms   map[string]float64 `json:"route_p99_ms"`
	RouteCount   map[string]int     `json:"route_count"`
	LateP99Ms    float64            `json:"late_p99_ms"`
	FailExamples []string           `json:"fail_examples,omitempty"`
}

type lgReport struct {
	Phases []lgPhaseReport `json:"phases"`
}

// The request mix is an unverified assumption: the repository has no recorded
// /v1 traffic to take it from. Routes are drawn with equal weight, so
// no route's share is a guess. Domains are drawn Zipf-skewed, because
// per-domain lookups from many users concentrate on a few popular
// sites; the exponent, just above 1, is the usual heavy-tailed choice
// and sends ~44% of per-domain requests to the top 10 of the paper
// dataset's ~2,750 served domains and ~70% to the top 100, so the
// response cache sees hot and cold keys alike.
// A fifth of requests revalidate with If-None-Match, enough to keep
// the 304 path busy while most requests still return a body.
const (
	zipfExponent    = 1.1
	revalidateShare = 0.2
)

// job is one scheduled request. Cursor-walk URLs are completed when the
// request is sent, because the cursor comes from the walk's last page.
type job struct {
	due        time.Time
	route      string
	url        string
	walk       int
	revalidate bool
}

type outcome struct {
	route   string
	latMs   float64
	status  int
	ok      bool
	failMsg string
}

type loadgen struct {
	spec   lgSpec
	client *http.Client
	tables []string
	routes []string // the route classes the dataset supports

	mu    sync.Mutex
	etags map[string]string
	walks []string
}

func loadgenMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench loadgen <spec.json>")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	var spec lgSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: spec:", err)
		return 1
	}
	rep, err := runLoad(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	return 0
}

func runLoad(ctx context.Context, spec lgSpec) (*lgReport, error) {
	tr := &http.Transport{MaxConnsPerHost: spec.Conns, MaxIdleConnsPerHost: spec.Conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	lg := &loadgen{
		spec:   spec,
		client: &http.Client{Transport: tr, Timeout: 5 * time.Second},
		tables: []string{"1", "2a", "2b", "3", "4", "5", "6"},
		etags:  map[string]string{},
		walks:  make([]string, 8),
	}
	for _, r := range serveRoutes {
		if spec.Events || (r != "provenance" && r != "events") {
			lg.routes = append(lg.routes, r)
		}
	}
	if !engine.Sleep(ctx, time.Until(time.Unix(0, spec.StartAt))) && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rep := &lgReport{}
	for i, ph := range spec.Phases {
		pr, err := lg.runPhase(ctx, ph, spec.Seed*1000003+int64(i))
		if err != nil {
			return nil, err
		}
		rep.Phases = append(rep.Phases, *pr)
	}
	return rep, nil
}

// runPhase sends one phase's Poisson arrivals over spec.Conns keep-alive
// connections and waits for every request to finish.
func (lg *loadgen) runPhase(ctx context.Context, ph lgPhase, seed int64) (*lgPhaseReport, error) {
	if ph.Rate == 0 {
		return lg.runClosed(ctx, ph, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfExponent, 1, uint64(len(lg.spec.Domains)-1))
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(ph.Seconds * float64(time.Second)))
	var jobs []job
	for t := start; ; {
		t = t.Add(time.Duration(rng.ExpFloat64() / ph.Rate * float64(time.Second)))
		if !t.Before(end) {
			break
		}
		jobs = append(jobs, lg.makeJob(rng, zipf, t))
	}
	// The queue holds every arrival of the phase, so the scheduler never
	// blocks on a slow server: an open loop keeps sending.
	queue := make(chan job, len(jobs))
	outs := make([]outcome, 0, len(jobs))
	var outMu sync.Mutex
	lateMs := make([]float64, 0, len(jobs))

	g, gctx := engine.NewGroup(ctx)
	g.Go(func(ctx context.Context) error {
		defer close(queue)
		for _, j := range jobs {
			if d := time.Until(j.due); d > 0 && !engine.Sleep(ctx, d) {
				return ctx.Err()
			}
			lateMs = append(lateMs, msSince(j.due))
			queue <- j
		}
		return nil
	})
	for c := 0; c < lg.spec.Conns; c++ {
		g.Go(func(ctx context.Context) error {
			for j := range queue {
				o := lg.send(ctx, j)
				outMu.Lock()
				outs = append(outs, o)
				outMu.Unlock()
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, fmt.Errorf("phase %s: %w", ph.Name, err)
	}
	if err := gctx.Err(); err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("phase %s: %w", ph.Name, err)
	}
	return lg.summarise(ph, outs, lateMs), nil
}

// closedWindow is the slice of a closed-loop phase whose throughput is
// one sample; the phase reports the median sample, so a stall in one
// slice does not set the figure.
const closedWindow = 500 * time.Millisecond

// closedWarmup precedes a closed-loop phase's windows and is not
// measured: while connections, caches and the heap warm up, the first
// windows of trial runs read up to a fifth below the rest.
const closedWarmup = time.Second

// runClosed keeps every connection busy for the phase: the rate the
// server sustains with nproc clients that each wait for their reply.
func (lg *loadgen) runClosed(ctx context.Context, ph lgPhase, seed int64) (*lgPhaseReport, error) {
	start := time.Now().Add(closedWarmup) // the first measured window opens here
	end := start.Add(time.Duration(ph.Seconds * float64(time.Second)))
	var outs []outcome
	windows := make([]float64, int(end.Sub(start)/closedWindow))
	var outMu sync.Mutex
	g, gctx := engine.NewGroup(ctx)
	for c := 0; c < lg.spec.Conns; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		zipf := rand.NewZipf(rng, zipfExponent, 1, uint64(len(lg.spec.Domains)-1))
		g.Go(func(ctx context.Context) error {
			for now := time.Now(); now.Before(end) && ctx.Err() == nil; now = time.Now() {
				o := lg.send(ctx, lg.makeJob(rng, zipf, now))
				since := time.Since(start)
				outMu.Lock()
				outs = append(outs, o)
				if w := int(since / closedWindow); since >= 0 && o.ok && o.latMs <= lg.spec.LimitMs && w < len(windows) {
					windows[w]++
				}
				outMu.Unlock()
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, fmt.Errorf("phase %s: %w", ph.Name, err)
	}
	if err := gctx.Err(); err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("phase %s: %w", ph.Name, err)
	}
	pr := lg.summarise(ph, outs, nil)
	if len(windows) > 0 {
		sort.Float64s(windows)
		pr.Goodput = windows[len(windows)/2] / closedWindow.Seconds()
		if len(windows)%2 == 0 {
			pr.Goodput = (windows[len(windows)/2-1] + windows[len(windows)/2]) / 2 / closedWindow.Seconds()
		}
	}
	return pr, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (lg *loadgen) pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func (lg *loadgen) makeJob(rng *rand.Rand, zipf *rand.Zipf, due time.Time) job {
	route := lg.pick(rng, lg.routes)
	j := job{due: due, route: route, revalidate: rng.Float64() < revalidateShare}
	dom := url.PathEscape(lg.spec.Domains[zipf.Uint64()])
	switch route {
	case "summary":
		j.url = "/v1/summary"
	case "table":
		j.url = "/v1/tables/" + lg.pick(rng, lg.tables)
	case "domains_filter":
		// Sector, aspect, label and page size combine into thousands of
		// distinct URLs, more than the server's response cache holds.
		q := url.Values{}
		if rng.Intn(3) > 0 {
			q.Set("sector", lg.pick(rng, lg.spec.Sectors))
		}
		if rng.Intn(2) == 0 {
			q.Set("aspect", lg.pick(rng, lg.spec.Aspects))
		}
		if len(q) == 0 || rng.Intn(2) == 0 {
			q.Set("label", lg.pick(rng, lg.spec.Labels))
		}
		q.Set("limit", strconv.Itoa(5+rng.Intn(96)))
		j.url = "/v1/domains?" + q.Encode()
	case "domains_page":
		j.walk = rng.Intn(len(lg.walks))
	case "domain":
		j.url = "/v1/domains/" + dom
	case "label":
		j.url = "/v1/domains/" + dom + "/label"
	case "ask":
		j.url = "/v1/domains/" + dom + "/ask?q=" + url.QueryEscape(lg.pick(rng, lg.spec.Questions))
	case "provenance":
		j.url = "/v1/domains/" + dom + "/provenance"
	case "events":
		j.url = "/v1/events?outcome=" + lg.pick(rng, lg.spec.Outcomes) + "&limit=" + strconv.Itoa(10+10*rng.Intn(5))
	case "risk":
		j.url = "/v1/risk?top=" + strconv.Itoa(5+5*rng.Intn(10))
	}
	return j
}

// send issues one request and checks its body: JSON bodies must be valid,
// text bodies must be non-empty, and a 304 must answer a revalidation.
func (lg *loadgen) send(ctx context.Context, j job) outcome {
	o := outcome{route: j.route}
	u := j.url
	if j.route == "domains_page" {
		lg.mu.Lock()
		cur := lg.walks[j.walk]
		lg.mu.Unlock()
		u = "/v1/domains?limit=50"
		if cur != "" {
			u += "&cursor=" + url.QueryEscape(cur)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.spec.URL+u, nil)
	if err != nil {
		o.failMsg = err.Error()
		o.latMs = msSince(j.due)
		return o
	}
	if j.revalidate {
		lg.mu.Lock()
		if et, ok := lg.etags[u]; ok {
			req.Header.Set("If-None-Match", et)
		}
		lg.mu.Unlock()
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		o.failMsg = err.Error()
		o.latMs = msSince(j.due)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	o.latMs = msSince(j.due)
	o.status = resp.StatusCode
	if err == nil {
		err = cerr
	}
	if err != nil {
		o.failMsg = fmt.Sprintf("%s: reading body: %v", u, err)
		return o
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		if req.Header.Get("If-None-Match") == "" {
			o.failMsg = u + ": 304 without If-None-Match"
			return o
		}
		o.ok = true
		return o
	case http.StatusOK:
	default:
		o.failMsg = fmt.Sprintf("%s: status %d", u, resp.StatusCode)
		return o
	}
	if et := resp.Header.Get("ETag"); et != "" {
		lg.mu.Lock()
		lg.etags[u] = et
		lg.mu.Unlock()
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		var page struct {
			NextCursor *string `json:"next_cursor"`
		}
		// json.Valid checks what decoding would, without building the
		// value, so the generator's own CPU stays small beside the
		// server's on a machine they share.
		if !json.Valid(body) {
			o.failMsg = u + ": body is not valid JSON"
			return o
		}
		if j.route == "domains_page" {
			if err := json.Unmarshal(body, &page); err != nil {
				o.failMsg = fmt.Sprintf("%s: page does not decode: %v", u, err)
				return o
			}
			lg.mu.Lock()
			lg.walks[j.walk] = ""
			if page.NextCursor != nil {
				lg.walks[j.walk] = *page.NextCursor
			}
			lg.mu.Unlock()
		}
	} else if len(body) == 0 {
		o.failMsg = u + ": empty body"
		return o
	}
	o.ok = true
	return o
}

func (lg *loadgen) summarise(ph lgPhase, outs []outcome, lateMs []float64) *lgPhaseReport {
	pr := &lgPhaseReport{
		Name: ph.Name, Rate: ph.Rate, Sent: len(outs), Seconds: ph.Seconds, Conns: lg.spec.Conns,
		Statuses:   map[string]int{},
		RouteP50Ms: map[string]float64{}, RouteP99Ms: map[string]float64{}, RouteCount: map[string]int{},
	}
	all := make([]float64, 0, len(outs))
	byRoute := map[string][]float64{}
	for _, o := range outs {
		lat := o.latMs
		if o.ok {
			pr.OK++
			if o.status == http.StatusNotModified {
				pr.NotModified++
			}
		} else {
			pr.Failed++
			lat = math.Inf(1)
			if len(pr.FailExamples) < 5 {
				pr.FailExamples = append(pr.FailExamples, o.failMsg)
			}
		}
		pr.Statuses[strconv.Itoa(o.status)]++
		all = append(all, lat)
		byRoute[o.route] = append(byRoute[o.route], lat)
	}
	pr.P50Ms = pctl(all, 0.5)
	pr.P99Ms = pctl(all, 0.99)

	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		pr.RouteP50Ms[r] = pctl(byRoute[r], 0.5)
		pr.RouteP99Ms[r] = pctl(byRoute[r], 0.99)
		pr.RouteCount[r] = len(byRoute[r])
	}
	pr.LateP99Ms = pctl(lateMs, 0.99)
	if math.IsInf(pr.P99Ms, 1) {
		pr.P99Ms = -1 // JSON has no infinity; -1 marks "failed requests in the tail"
	}
	if math.IsInf(pr.P50Ms, 1) {
		pr.P50Ms = -1
	}
	for r, v := range pr.RouteP99Ms {
		if math.IsInf(v, 1) {
			pr.RouteP99Ms[r] = -1
		}
	}
	for r, v := range pr.RouteP50Ms {
		if math.IsInf(v, 1) {
			pr.RouteP50Ms[r] = -1
		}
	}
	return pr
}

// pctl is the q-quantile by the nearest-rank method, so a tail made of
// failed requests (+Inf) reads as infinite rather than interpolated.
func pctl(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// routeOf classifies a /v1 request into the load generator's route
// classes, for the server-side handler timer.
func routeOf(path, rawQuery string) string {
	switch {
	case path == "/v1/summary":
		return "summary"
	case strings.HasPrefix(path, "/v1/tables/"):
		return "table"
	case path == "/v1/domains":
		if strings.Contains(rawQuery, "sector=") || strings.Contains(rawQuery, "aspect=") ||
			strings.Contains(rawQuery, "label=") {
			return "domains_filter"
		}
		return "domains_page"
	case strings.HasPrefix(path, "/v1/domains/"):
		switch {
		case strings.HasSuffix(path, "/label"):
			return "label"
		case strings.HasSuffix(path, "/ask"):
			return "ask"
		case strings.HasSuffix(path, "/provenance"):
			return "provenance"
		}
		return "domain"
	case path == "/v1/events":
		return "events"
	case path == "/v1/risk":
		return "risk"
	}
	return "other"
}
