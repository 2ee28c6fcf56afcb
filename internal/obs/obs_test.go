package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// ------------------------------------------------------------------ logger

func testLogger(buf *strings.Builder, level Level) *Logger {
	l := NewLogger(buf, level)
	l.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLoggerFormat(t *testing.T) {
	var buf strings.Builder
	log := testLogger(&buf, LevelInfo).With("crawler")
	log.Info("fetch failed", "url", "http://x/privacy", "status", 503, "err", "service unavailable")
	want := `time=2026-08-06T12:00:00Z level=info component=crawler msg="fetch failed" url=http://x/privacy status=503 err="service unavailable"` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("log line:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerLevelsAndScoping(t *testing.T) {
	var buf strings.Builder
	log := testLogger(&buf, LevelWarn)
	log.Debug("hidden")
	log.Info("hidden")
	log.With("a").With("b").Warn("shown")
	if got := buf.String(); !strings.Contains(got, "component=a.b") || strings.Contains(got, "hidden") {
		t.Errorf("output: %q", got)
	}
	// SetLevel through a child affects the family.
	log.With("c").SetLevel(LevelDebug)
	log.Debug("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Errorf("SetLevel via child did not apply: %q", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var log *Logger
	log.Info("no-op")            // must not panic
	log.With("x").Error("no-op") // scoping a nil logger is nil
	log.SetLevel(LevelDebug)     // no-op
	if log.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"debug": LevelDebug, "INFO": LevelInfo, "warning": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("shout"); err == nil {
		t.Error("bogus level accepted")
	}
}

// ---------------------------------------------------------------- registry

// TestRegistryConcurrency is the race-detector acceptance test: parallel
// counter/gauge/histogram writers race a scraping reader, then the final
// totals must be exact.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("c_total", "counter", "w")
	g := reg.Gauge("g", "gauge")
	h := reg.HistogramVec("h_seconds", "histogram", []float64{0.5, 1, 2}, "w")

	const workers, perWorker = 8, 500
	// Expose omits a labelled family with no series yet, so create every
	// writer's series before the reader starts: each scrape can then
	// assert the family unconditionally. Creating a series adds nothing
	// to its value, so the final totals stay exact.
	for w := 0; w < workers; w++ {
		label := string(rune('a' + w))
		c.With(label)
		h.With(label)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // scraping reader, concurrent with the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if out := reg.Expose(); !strings.Contains(out, "# TYPE c_total counter") {
					t.Error("scrape missing counter family")
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			label := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.With(label).Inc()
				g.Add(1)
				h.With(label).Observe(float64(i%4) + 0.25)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	var counted float64
	for w := 0; w < workers; w++ {
		counted += c.With(string(rune('a' + w))).Value()
	}
	if want := float64(workers * perWorker); counted != want {
		t.Errorf("counter total = %v, want %v", counted, want)
	}
	if g.Value() != float64(workers*perWorker) {
		t.Errorf("gauge = %v", g.Value())
	}
	var hcount uint64
	for w := 0; w < workers; w++ {
		hcount += h.With(string(rune('a' + w))).Count()
	}
	if hcount != workers*perWorker {
		t.Errorf("histogram count = %d", hcount)
	}
}

// ------------------------------------------------------------------ golden

func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aipan_things_total", "Things counted.").Add(3)
	reg.CounterVec("aipan_fetches_total", "Fetches by class.", "status_class").With("2xx").Add(7)
	reg.GaugeVec("aipan_funnel", "Funnel counts.", "stage").With("crawl_ok").Set(42.5)
	h := reg.Histogram("aipan_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	want := strings.Join([]string{
		`# HELP aipan_fetches_total Fetches by class.`,
		`# TYPE aipan_fetches_total counter`,
		`aipan_fetches_total{status_class="2xx"} 7`,
		`# HELP aipan_funnel Funnel counts.`,
		`# TYPE aipan_funnel gauge`,
		`aipan_funnel{stage="crawl_ok"} 42.5`,
		`# HELP aipan_latency_seconds Latency.`,
		`# TYPE aipan_latency_seconds histogram`,
		`aipan_latency_seconds_bucket{le="0.1"} 1`,
		`aipan_latency_seconds_bucket{le="1"} 2`,
		`aipan_latency_seconds_bucket{le="+Inf"} 3`,
		`aipan_latency_seconds_sum 3.55`,
		`aipan_latency_seconds_count 3`,
		`# HELP aipan_things_total Things counted.`,
		`# TYPE aipan_things_total counter`,
		`aipan_things_total 3`,
		``,
	}, "\n")
	if got := reg.Expose(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type conflict did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

// ------------------------------------------------------------------- spans

func TestSpansBuildTraceTree(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	ctx := WithTracer(context.Background(), tr)

	rctx, run := StartSpan(ctx, "run")
	for i := 0; i < 3; i++ {
		dctx, domain := StartSpan(rctx, "domain")
		_, crawl := StartSpan(dctx, "crawl")
		crawl.End()
		domain.End()
	}
	run.End()

	sum := tr.Summary()
	if len(sum.Stages) != 1 || sum.Stages[0].Name != "run" || sum.Stages[0].Count != 1 {
		t.Fatalf("summary root: %+v", sum.Stages)
	}
	dom := sum.Stages[0].Children
	if len(dom) != 1 || dom[0].Name != "domain" || dom[0].Count != 3 {
		t.Fatalf("domain level: %+v", dom)
	}
	if len(dom[0].Children) != 1 || dom[0].Children[0].Name != "crawl" || dom[0].Children[0].Count != 3 {
		t.Fatalf("crawl level: %+v", dom[0].Children)
	}
	if dom[0].Max < dom[0].Children[0].Max {
		t.Error("parent max shorter than child max")
	}
	// Spans feed the stage histogram.
	if !strings.Contains(reg.Expose(), `aipan_stage_duration_seconds_count{stage="crawl"} 3`) {
		t.Errorf("stage histogram missing:\n%s", reg.Expose())
	}
	if out := sum.String(); !strings.Contains(out, "run") || !strings.Contains(out, "  domain") {
		t.Errorf("rendered summary:\n%s", out)
	}
}

func TestSpansNoTracerNoOp(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "orphan")
	if span != nil {
		t.Fatal("expected nil span without tracer")
	}
	span.End() // must not panic
	if TracerFrom(ctx) != nil {
		t.Error("tracer appeared from nowhere")
	}
}

// -------------------------------------------------------------------- http

func TestMetricsHandlerAndInstrument(t *testing.T) {
	reg := NewRegistry()
	inner := InstrumentHandler(reg, "test", DebugMux(reg))

	rec := httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ExpositionContentType {
		t.Errorf("content type = %q", ct)
	}

	rec = httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `aipan_http_requests_total{handler="test",code="200"} 1`) {
		t.Errorf("request counter missing from:\n%s", body)
	}
	if !strings.Contains(body, `aipan_http_request_duration_seconds_count{handler="test"} 1`) {
		t.Errorf("latency histogram missing from:\n%s", body)
	}

	rec = httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(reg.Expose(), `aipan_http_requests_total{handler="test",code="404"} 1`) {
		t.Error("404 not counted")
	}
}
