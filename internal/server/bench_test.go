package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipan/internal/annotate"
	"aipan/internal/obs"
	"aipan/internal/russell"
	"aipan/internal/store"
	"aipan/internal/taxonomy"
)

// paperDatasetSize matches the corpus size in the source paper (2,892
// privacy policies), so the speedup is measured at the scale the server
// actually runs at.
const paperDatasetSize = 2892

// naiveHandler is the pre-redesign serving strategy: every request
// walks the full record slice and re-encodes the response from scratch.
// It exists only as the benchmark baseline.
func naiveHandler(recs []store.Record) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var payload any
		switch r.URL.Path {
		case "/v1/summary":
			sum := Summary{ByAspect: map[string]int{}, SectorCounts: map[string]int{}}
			for i := range recs {
				rec := &recs[i]
				sum.Domains++
				if rec.Crawl.Success {
					sum.CrawlOK++
				}
				if rec.Extraction.Success {
					sum.ExtractOK++
				}
				if rec.Annotated() {
					sum.Annotated++
				}
				sum.SectorCounts[rec.SectorAbbrev]++
				sum.Annotations += len(rec.Annotations)
				for _, a := range rec.Annotations {
					sum.ByAspect[a.Aspect]++
				}
			}
			payload = sum
		case "/v1/domains":
			sector := r.URL.Query().Get("sector")
			page := DomainsPage{Domains: []DomainSummary{}}
			for i := range recs {
				rec := &recs[i]
				if sector != "" && !strings.EqualFold(rec.SectorAbbrev, sector) {
					continue
				}
				page.Domains = append(page.Domains, DomainSummary{
					Domain: rec.Domain, Company: rec.Company, Sector: rec.SectorAbbrev,
					Annotations: len(rec.Annotations), CrawlOK: rec.Crawl.Success,
				})
			}
			page.Total = len(page.Domains)
			payload = page
		default:
			http.NotFound(w, r)
			return
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(data, '\n'))
	})
}

// BenchmarkServerQPS compares the indexed+cached /v1 query engine
// against the naive full-scan baseline at the paper's dataset size.
// The acceptance bar for the redesign is >=5x on both routes.
func BenchmarkServerQPS(b *testing.B) {
	recs := makeRecords(paperDatasetSize)
	s, err := NewServer(Records(recs), WithRegistry(obs.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	naive := naiveHandler(recs)

	bench := func(h http.Handler, path string, wantStatus int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.RemoteAddr = "10.0.0.1:12345"
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != wantStatus {
					b.Fatalf("%s: status %d, want %d", path, rec.Code, wantStatus)
				}
			}
		}
	}

	b.Run("summary/naive", bench(naive, "/v1/summary", 200))
	b.Run("summary/indexed", bench(s, "/v1/summary", 200))
	b.Run("domains_sector/naive", bench(naive, "/v1/domains?sector=fs", 200))
	b.Run("domains_sector/indexed", bench(s, "/v1/domains?sector=fs", 200))
}

// BenchmarkViewBuild prices the startup/refresh cost the request path
// no longer pays: one full index + table + risk build per generation.
func BenchmarkViewBuild(b *testing.B) {
	recs := makeRecords(paperDatasetSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildView(recs, nil, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// paperShapedRecords fabricates n deterministic records shaped like the
// paper dataset: 11 sectors, about 7 in 8 annotated, and about 60
// taxonomy-drawn annotations per annotated record over the four aspects,
// with repeats inside a domain. It prices the table rollup at the size
// it runs at, which makeRecords' one or two annotations per record do
// not.
func paperShapedRecords(seed int64, n int) []store.Record {
	rng := rand.New(rand.NewSource(seed))
	sectors := russell.Sectors()
	var pools [4][]annotate.Annotation
	for _, c := range taxonomy.TypeCategories() {
		for _, d := range c.Descriptors {
			pools[0] = append(pools[0], annotate.Annotation{Aspect: "types", Meta: c.Meta, Category: c.Name, Descriptor: d.Name})
		}
	}
	for _, c := range taxonomy.PurposeCategories() {
		for _, d := range c.Descriptors {
			pools[1] = append(pools[1], annotate.Annotation{Aspect: "purposes", Meta: c.Meta, Category: c.Name, Descriptor: d.Name})
		}
	}
	for i, labels := range [][]taxonomy.Label{
		append(taxonomy.RetentionLabels(), taxonomy.ProtectionLabels()...),
		append(taxonomy.ChoiceLabels(), taxonomy.AccessLabels()...),
	} {
		for _, l := range labels {
			pools[2+i] = append(pools[2+i], annotate.Annotation{Aspect: []string{"handling", "rights"}[i], Meta: l.Group, Category: l.Name})
		}
	}
	means := [4]int{35, 14, 7, 7}
	recs := make([]store.Record, n)
	for i := range recs {
		rec := &recs[i]
		sector := sectors[rng.Intn(len(sectors))]
		rec.Domain = fmt.Sprintf("d%05d.example.com", i)
		rec.Company = fmt.Sprintf("Company %05d", i)
		rec.Sector, rec.SectorAbbrev = sector, russell.Abbrev(sector)
		rec.Crawl.Success = rng.Intn(10) != 0
		rec.Extraction.Success = rec.Crawl.Success && rng.Intn(25) != 0
		if !rec.Extraction.Success {
			continue
		}
		for p, pool := range pools {
			for j := rng.Intn(2 * means[p]); j > 0; j-- {
				a := pool[rng.Intn(len(pool))]
				a.Text = a.Category
				a.Context = fmt.Sprintf("We state practice %d in this sentence.", rng.Intn(1000))
				rec.Annotations = append(rec.Annotations, a)
			}
		}
	}
	return recs
}

// BenchmarkServerRefresh prices the writer's cycle on a live server: four
// records appended to a binary:16 store holding a paper-sized dataset,
// then one Refresh (re-scan of the moved shards and a full view build).
func BenchmarkServerRefresh(b *testing.B) {
	st, err := store.OpenBinary(b.TempDir(), 16)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	recs := paperShapedRecords(1, paperDatasetSize+4*b.N)
	for i := 0; i < paperDatasetSize; i++ {
		if err := st.Append(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	s, err := NewServer(FromStore(st), WithRegistry(obs.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := paperDatasetSize + 4*i; j < paperDatasetSize+4*(i+1); j++ {
			if err := st.Append(&recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Refresh(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
