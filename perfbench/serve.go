package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/server"
	"aipan/internal/store"
)

// servePlan fixes how hard and how long a serve phase loads the server.
type servePlan struct {
	RefRate  float64 `json:"ref_rate"`  // reference read rate, also kept up while refreshing
	RefS     float64 `json:"ref_s"`     // reference phase length (serve_p50_ms, server.p99_ms)
	LimitMs  float64 `json:"limit_ms"`  // latency within which a closed-loop answer counts
	ClosedS  float64 `json:"closed_s"`  // closed-loop phase length (server.max_rps); 0 skips it
	RefreshS float64 `json:"refresh_s"` // refresh phase length: the writer appends and refreshes back to back for it
	Setups   int     `json:"setups"`    // server set-ups timed for setup_s
}

// serveSpec is the serve child's input: where the dataset is, and the
// plan to load it with.
type serveSpec struct {
	Dir    string    `json:"dir"` // scratch directory for the serve store and loadgen specs
	Seed   int64     `json:"seed"`
	Source string    `json:"source"` // a store.OpenSpec spec: "jsonl" or "binary:16"
	Path   string    `json:"path"`
	Events string    `json:"events,omitempty"` // flight-recorder directory, if any
	Plan   servePlan `json:"plan"`
	Trace  bool      `json:"trace"`
}

// serveOut is what a serve phase measured, reported by the serve child.
type serveOut struct {
	SetupS            []float64          `json:"setup_s"`
	Ref               lgPhaseReport      `json:"ref"`
	Closed            lgPhaseReport      `json:"closed"`
	RefreshPhase      lgPhaseReport      `json:"refresh_phase"`
	RefreshMs         []float64          `json:"refresh_ms"`
	HandlerP50Us      map[string]float64 `json:"handler_p50_us,omitempty"`
	CacheHit          float64            `json:"cache_hit_ratio"`
	NotModified       float64            `json:"not_modified_ratio"`
	Shed              float64            `json:"shed"`
	Appended          int                `json:"appended"`
	RefreshBusyS      float64            `json:"refresh_busy_s"`
	WriterAppendBusyS float64            `json:"writer_append_busy_s"`
	PeakRSSMiB        float64            `json:"peak_rss_mib"`
	GCCycles          uint64             `json:"gc_cycles"`
	GCCPUFrac         float64            `json:"gc_cpu_frac"`
	HeapPeakMiB       float64            `json:"heap_peak_mib"`
	Attempted         int                `json:"attempted"`
	Failed            int                `json:"failed"`
	Failures          []string           `json:"failures,omitempty"`
}

// serveChild serves a dataset in a child process, so the server's
// memory and CPU are its own, and waits for it.
func serveChild(ctx context.Context, spec serveSpec) (*serveOut, error) {
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	path := filepath.Join(spec.Dir, "serve.json")
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("serve spec: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("serve spec: %w", err)
	}
	var so serveOut
	if err := runSelf(ctx, &so, "serve", path); err != nil {
		return nil, err
	}
	return &so, nil
}

// runSelf runs this binary as a child with args and decodes the JSON it
// prints into out.
func runSelf(ctx context.Context, out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return fmt.Errorf("%s: decoding its report: %w", args[0], err)
	}
	return nil
}

func serveMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench serve <spec.json>")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	var spec serveSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "serve: spec:", err)
		return 1
	}
	so, err := serveDataset(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(so); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	return 0
}

// heldBack picks the ~5% of records the writer appends during the run
// instead of loading them up front; the choice depends on the seed only.
func heldBack(seed int64, domain string) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%s", seed, domain)
	return h.Sum32()%20 == 0
}

// mixMaterial is the vocabulary the load generator draws requests from,
// taken from the records that are served from the start.
type mixMaterial struct {
	domains, sectors, aspects, labels []string
}

func (m *mixMaterial) add(rec *store.Record, sectors, aspects, labels map[string]bool) {
	m.domains = append(m.domains, rec.Domain)
	if !sectors[rec.SectorAbbrev] {
		sectors[rec.SectorAbbrev] = true
		m.sectors = append(m.sectors, rec.SectorAbbrev)
	}
	for _, a := range rec.Annotations {
		if !aspects[a.Aspect] {
			aspects[a.Aspect] = true
			m.aspects = append(m.aspects, a.Aspect)
		}
		if a.Category != "" && !labels[a.Category] {
			labels[a.Category] = true
			m.labels = append(m.labels, a.Category)
		}
	}
}

// loadServeStore copies the dataset into a fresh binary:16 store, all
// but the held-back records, which it returns.
func loadServeStore(spec serveSpec, storeDir string) ([]store.Record, *mixMaterial, error) {
	src, err := store.OpenSpec(spec.Source, spec.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("serve source: %w", err)
	}
	defer src.Close()
	base, err := store.OpenBinary(storeDir, 16)
	if err != nil {
		return nil, nil, fmt.Errorf("serve store: %w", err)
	}
	var held []store.Record
	mm := &mixMaterial{}
	seenS, seenA, seenL := map[string]bool{}, map[string]bool{}, map[string]bool{}
	err = src.Scan(func(r *store.Record) error {
		if heldBack(spec.Seed, r.Domain) {
			held = append(held, *r) // Scan hands out a fresh decode each call
			return nil
		}
		mm.add(r, seenS, seenA, seenL)
		return base.Append(r)
	})
	if cerr := base.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve store: %w", err)
	}
	if len(mm.domains) < 2 || len(mm.sectors) == 0 || len(mm.aspects) == 0 || len(mm.labels) == 0 {
		return nil, nil, fmt.Errorf("serve store: dataset too small to build a request mix")
	}
	sort.Strings(mm.sectors)
	sort.Strings(mm.aspects)
	sort.Strings(mm.labels)
	rng := rand.New(rand.NewSource(spec.Seed))
	rng.Shuffle(len(mm.domains), func(i, j int) { mm.domains[i], mm.domains[j] = mm.domains[j], mm.domains[i] })
	return held, mm, nil
}

// serveDataset builds the /v1 server over the dataset the way
// `aipan serve` does (default options, so rate limiting is off), then
// drives it with the load generator in a child process: the reference
// rate, on traced runs a closed loop, then the reference rate again
// while a writer appends the held-back records and refreshes.
func serveDataset(ctx context.Context, spec serveSpec) (*serveOut, error) {
	rep := newReport()
	plan := spec.Plan
	storeDir := filepath.Join(spec.Dir, "serve-store")
	held, mm, err := loadServeStore(spec, storeDir)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if spec.Trace {
		tr = newTracer()
	}
	var events store.EventStore
	var opts []server.Option
	if spec.Events != "" {
		ev, err := store.OpenEventDir(spec.Events)
		if err != nil {
			return nil, fmt.Errorf("serve events: %w", err)
		}
		defer ev.Close()
		events = ev
		opts = append(opts, server.WithEvents(ev))
	}

	out := &serveOut{}
	var (
		st  *store.Binary
		srv *server.Server
		reg *obs.Registry
		ln  net.Listener
	)
	for i := 0; i < plan.Setups; i++ {
		runtime.GC()
		start := time.Now()
		s, err := store.OpenBinary(storeDir, 16)
		if err != nil {
			return nil, fmt.Errorf("serve setup: %w", err)
		}
		r := obs.NewRegistry()
		sv, err := server.NewServer(server.FromStore(s), append([]server.Option{server.WithRegistry(r)}, opts...)...)
		if err != nil {
			_ = s.Close() // the NewServer error is the one to report
			return nil, fmt.Errorf("serve setup: %w", err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = s.Close() // the Listen error is the one to report
			return nil, fmt.Errorf("serve setup: %w", err)
		}
		out.SetupS = append(out.SetupS, time.Since(start).Seconds())
		if i < plan.Setups-1 {
			if err := errors.Join(l.Close(), s.Close()); err != nil {
				return nil, fmt.Errorf("serve setup: %w", err)
			}
			continue
		}
		st, srv, reg, ln = s, sv, r, l
	}
	defer st.Close()
	runtime.GC() // collect the set-ups' garbage before timing reads
	var appender store.Store = st
	var handler http.Handler = srv
	var timer *routeTimer
	if tr != nil {
		appender = &tracedStore{Store: st, t: tr}
		timer = newRouteTimer(srv)
		handler = timer
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	lg := lgSpec{
		URL:     "http://" + ln.Addr().String(),
		Seed:    spec.Seed,
		Conns:   min(2, runtime.NumCPU()),
		LimitMs: plan.LimitMs,
		Domains: mm.domains, Sectors: mm.sectors, Aspects: mm.aspects, Labels: mm.labels,
		Outcomes: []string{store.OutcomeAnnotated, store.OutcomeCrawlFailed, store.OutcomeNoPolicy,
			store.OutcomeExtractFailed},
		Questions: []string{
			"Do they sell my data?", "Can I delete my data?", "How long do they retain data?",
			"Can I opt out of marketing emails?", "Do they track my location?",
			"Do they collect health data?", "What data do they collect?", "Is my data encrypted?",
		},
		Events: events != nil,
	}

	before, err := readProc()
	if err != nil {
		return nil, err
	}
	stopHeap := heapSampler(ctx)
	g, gctx := engine.NewGroup(ctx)
	g.Go(func(ctx context.Context) error {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	})
	g.Go(func(ctx context.Context) error {
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
			}
		}()
		// The reference rate and, when planned, the closed loop run
		// first, with no writer, so they measure reads; then the writer refreshes under
		// read load at the reference rate.
		reads := lg
		reads.Phases = []lgPhase{{Name: "reference", Rate: plan.RefRate, Seconds: plan.RefS}}
		if plan.ClosedS > 0 {
			reads.Phases = append(reads.Phases, lgPhase{Name: "closed", Seconds: plan.ClosedS})
		}
		lr, err := runLoadgen(ctx, spec.Dir, "reads", reads)
		if err != nil {
			return err
		}
		out.Ref = lr.Phases[0]
		if plan.ClosedS > 0 {
			out.Closed = lr.Phases[1]
		}
		// The writer refreshes for as long as the refresh phase's reads
		// run, so a cheaper Refresh gives more samples in the same time.
		refresh := lg
		refresh.Phases = []lgPhase{{Name: "refresh", Rate: plan.RefRate, Seconds: plan.RefreshS}}
		refresh.StartAt = time.Now().Add(300 * time.Millisecond).UnixNano()
		wg, _ := engine.NewGroup(ctx)
		wg.Go(func(ctx context.Context) error {
			rr, err := runLoadgen(ctx, spec.Dir, "refresh", refresh)
			if err != nil {
				return err
			}
			out.RefreshPhase = rr.Phases[0]
			return nil
		})
		wg.Go(func(ctx context.Context) error {
			return writeHeld(ctx, rep, out, plan, time.Unix(0, refresh.StartAt), held, appender, srv, tr, len(mm.domains))
		})
		return wg.Wait()
	})
	err = g.Wait()
	out.HeapPeakMiB = stopHeap()
	if err != nil {
		return nil, err
	}
	if gctx.Err() != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := readProc()
	if err != nil {
		return nil, err
	}
	d := deltaOf(before, after)
	out.GCCycles, out.GCCPUFrac = d.gcCycles, d.gcCPUFrac
	for _, ph := range []lgPhaseReport{out.Ref, out.Closed, out.RefreshPhase} {
		rep.ops(ph.Sent, ph.Failed, ph.FailExamples)
	}
	if timer != nil {
		out.HandlerP50Us = map[string]float64{}
		for _, r := range serveRoutes {
			out.HandlerP50Us[r] = timer.p50(r)
		}
		out.RefreshBusyS = tr.layer("server.refresh").busy.Seconds()
		out.WriterAppendBusyS = tr.layer("store.append").busy.Seconds()
	}
	out.CacheHit, out.NotModified, out.Shed = serverCounters(reg)
	if out.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	out.Attempted, out.Failed, out.Failures = rep.attempted, rep.failed, rep.failures
	return out, nil
}

// Bounds on the refreshes of one refresh phase. The held-back records
// are split into maxRefreshes equal batches; the writer stops early once
// another Refresh would outlast the phase's reads, but not before
// minRefreshes.
const (
	minRefreshes = 5
	maxRefreshes = 40
)

// writeHeld appends the held-back records in equal batches, calling
// Refresh after each, back to back from startAt until the refresh phase
// ends, and after each Refresh checks that /v1/summary counts exactly
// what is stored.
func writeHeld(ctx context.Context, rep *report, out *serveOut, plan servePlan, startAt time.Time,
	held []store.Record, appender store.Store, srv *server.Server, tr *tracer, base int) error {
	if !engine.Sleep(ctx, time.Until(startAt.Add(250*time.Millisecond))) && ctx.Err() != nil {
		return ctx.Err()
	}
	end := startAt.Add(time.Duration(plan.RefreshS * float64(time.Second)))
	last := time.Duration(0)
	for k := 0; k < maxRefreshes && (k < minRefreshes || time.Now().Add(last).Before(end)); k++ {
		lo, hi := k*len(held)/maxRefreshes, (k+1)*len(held)/maxRefreshes
		for i := lo; i < hi; i++ {
			if err := appender.Append(&held[i]); err != nil {
				rep.check(false, "writer append %s: %v", held[i].Domain, err)
				continue
			}
			out.Appended++
		}
		_, sp := tr.start(ctx, "server.refresh")
		start := time.Now()
		if err := srv.Refresh(ctx); err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		last = time.Since(start)
		out.RefreshMs = append(out.RefreshMs, float64(last)/float64(time.Millisecond))
		sp.end()
		n, err := summaryDomains(srv)
		rep.check(err == nil && n == base+out.Appended,
			"after refresh %d /v1/summary counts %d records, want %d (err %v)", k+1, n, base+out.Appended, err)
	}
	return nil
}

// runLoadgen runs the load generator child on one spec.
func runLoadgen(ctx context.Context, dir, name string, spec lgSpec) (*lgReport, error) {
	if spec.StartAt == 0 {
		spec.StartAt = time.Now().Add(300 * time.Millisecond).UnixNano()
	}
	path := filepath.Join(dir, "loadgen-"+name+".json")
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("loadgen spec: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("loadgen spec: %w", err)
	}
	var lr lgReport
	if err := runSelf(ctx, &lr, "loadgen", path); err != nil {
		return nil, err
	}
	if len(lr.Phases) != len(spec.Phases) {
		return nil, fmt.Errorf("loadgen %s: %d phases reported, want %d", name, len(lr.Phases), len(spec.Phases))
	}
	return &lr, nil
}

// summaryDomains asks the server, in process, how many records it serves.
func summaryDomains(h http.Handler) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("/v1/summary: status %d", rec.Code)
	}
	var s server.Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		return 0, fmt.Errorf("/v1/summary: %w", err)
	}
	return s.Domains, nil
}

// serverCounters reads the response-cache hit ratio, the 304 share and
// the shed count from the server's /metrics exposition.
func serverCounters(reg *obs.Registry) (hitRatio, notModified, shed float64) {
	var hits, misses, total, n304 float64
	sc := bufio.NewScanner(strings.NewReader(reg.Expose()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		switch {
		case strings.HasPrefix(name, "aipan_server_cache_hits_total"):
			hits += v
		case strings.HasPrefix(name, "aipan_server_cache_misses_total"):
			misses += v
		case strings.HasPrefix(name, "aipan_server_shed_total"):
			shed += v
		case strings.HasPrefix(name, "aipan_server_requests_total"):
			total += v
			if strings.Contains(name, `class="3xx"`) {
				n304 += v
			}
		}
	}
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	if total > 0 {
		notModified = n304 / total
	}
	return hitRatio, notModified, shed
}
