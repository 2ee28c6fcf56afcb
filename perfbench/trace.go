package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"aipan/internal/chatbot"
	"aipan/internal/store"
)

// tracer aggregates spans per layer. A span's self time is its duration
// minus the union of its child spans' intervals; children find their
// parent through the context, so a chatbot call made inside segment is
// charged to segment and a fetch made inside a crawl to the crawler.
// Spans live in memory only and are folded into totals as they end.
type tracer struct {
	mu     sync.Mutex
	layers map[string]*layerTotal
	counts map[string]float64
}

type layerTotal struct {
	calls int64
	busy  time.Duration
	self  time.Duration
}

func newTracer() *tracer {
	return &tracer{layers: map[string]*layerTotal{}, counts: map[string]float64{}}
}

type span struct {
	t      *tracer
	layer  string
	start  time.Time
	parent *span

	mu   sync.Mutex
	kids [][2]time.Time
}

type spanKey struct{}

// start opens a span on layer, nested under the span in ctx if any. A
// nil tracer returns a nil span whose end is a no-op, so untraced code
// paths share the traced ones.
func (t *tracer) start(ctx context.Context, layer string) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*span)
	s := &span{t: t, layer: layer, start: time.Now(), parent: parent}
	return context.WithValue(ctx, spanKey{}, s), s
}

func (s *span) end() {
	if s == nil {
		return
	}
	end := time.Now()
	dur := end.Sub(s.start)
	s.mu.Lock()
	self := dur - covered(s.kids, s.start, end)
	s.mu.Unlock()
	if s.parent != nil {
		s.parent.mu.Lock()
		s.parent.kids = append(s.parent.kids, [2]time.Time{s.start, end})
		s.parent.mu.Unlock()
	}
	s.t.mu.Lock()
	lt := s.t.layers[s.layer]
	if lt == nil {
		lt = &layerTotal{}
		s.t.layers[s.layer] = lt
	}
	lt.calls++
	lt.busy += dur
	lt.self += self
	s.t.mu.Unlock()
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Time, lo, hi time.Time) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := curLo, curHi
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			total += b.Sub(a)
		}
	}
	for _, x := range iv[1:] {
		if x[0].After(curHi) {
			flush()
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	flush()
	return total
}

// add bumps a named counter (pages fetched, bytes parsed, ...).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) layer(name string) layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lt := t.layers[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// tracedTransport wraps the synthetic web's RoundTripper: every request
// is a virtualweb span, and the crawl span it runs under loses the time
// as self time.
type tracedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, s := tt.t.start(req.Context(), "virtualweb")
	resp, err := tt.next.RoundTrip(req)
	s.end()
	if err == nil && resp.ContentLength > 0 {
		tt.t.add("virtualweb.bytes", float64(resp.ContentLength))
	}
	return resp, err
}

// tracedBot wraps a chatbot.Chatbot. The outer wrapper sits in front of
// chatbot.Client and sees limiter waits and retries; the inner one sits
// behind it, around the simulated backend, and sees only model time.
type tracedBot struct {
	next  chatbot.Chatbot
	t     *tracer
	layer string // "chatbot" (outer) or "chatbot.sim" (inner)
}

func (b *tracedBot) Name() string { return b.next.Name() }

func (b *tracedBot) Complete(ctx context.Context, req chatbot.Request) (chatbot.Response, error) {
	_, s := b.t.start(ctx, b.layer)
	resp, err := b.next.Complete(ctx, req)
	s.end()
	if b.layer != "chatbot" {
		return resp, err
	}
	if err != nil {
		b.t.add("chatbot.failed", 1)
		return resp, err
	}
	b.t.add("chatbot.calls."+req.Task, 1)
	b.t.add("chatbot.prompt_tokens."+req.Task, float64(resp.Usage.PromptTokens))
	b.t.add("chatbot.completion_tokens", float64(resp.Usage.CompletionTokens))
	return resp, err
}

// tracedStore wraps a store.Store to time appends. Meta is forwarded so
// a seed stamp behaves as on the bare store.
type tracedStore struct {
	store.Store
	t *tracer
}

func (ts *tracedStore) Append(rec *store.Record) error {
	_, s := ts.t.start(context.Background(), "store.append")
	err := ts.Store.Append(rec)
	s.end()
	return err
}

func (ts *tracedStore) Meta() (store.Meta, bool, error) {
	if ms, ok := ts.Store.(store.MetaStore); ok {
		return ms.Meta()
	}
	return store.Meta{}, false, nil
}

func (ts *tracedStore) SetMeta(m store.Meta) error {
	if ms, ok := ts.Store.(store.MetaStore); ok {
		return ms.SetMeta(m)
	}
	return nil
}

// tracedEvents wraps the flight recorder's sink.
type tracedEvents struct {
	next store.EventSink
	t    *tracer
}

func (te *tracedEvents) Append(ev *store.Event) error {
	_, s := te.t.start(context.Background(), "store.event_append")
	err := te.next.Append(ev)
	s.end()
	return err
}

// routeTimer wraps the server's http.Handler and records each request's
// ServeHTTP time by route class.
type routeTimer struct {
	next http.Handler
	mu   sync.Mutex
	us   map[string][]float64
}

func newRouteTimer(next http.Handler) *routeTimer {
	return &routeTimer{next: next, us: map[string][]float64{}}
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.next.ServeHTTP(w, r)
	d := time.Since(start)
	route := routeOf(r.URL.Path, r.URL.RawQuery)
	rt.mu.Lock()
	rt.us[route] = append(rt.us[route], float64(d)/float64(time.Microsecond))
	rt.mu.Unlock()
}

func (rt *routeTimer) p50(route string) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return median(rt.us[route])
}
