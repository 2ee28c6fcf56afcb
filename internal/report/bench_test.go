package report

import (
	"fmt"
	"math/rand"
	"testing"

	"aipan/internal/annotate"
	"aipan/internal/russell"
	"aipan/internal/store"
	"aipan/internal/taxonomy"
)

// paperCorpusSize is the paper's study size (2,892 domains).
const paperCorpusSize = 2892

// seededCorpus builds a deterministic paper-shaped dataset without
// running the pipeline: n records over the 11 sectors, about 7 in 8 of
// them annotated, each annotated record carrying about 60 taxonomy-drawn
// annotations over the four aspects (the paper dataset averages 63) with
// repeats inside a domain. Handling and rights labels carry no
// descriptor, except a stated retention period.
func seededCorpus(seed int64, n int) []store.Record {
	rng := rand.New(rand.NewSource(seed))
	sectors := russell.Sectors()
	types, purposes := taxonomy.TypeCategories(), taxonomy.PurposeCategories()
	handling := append(taxonomy.RetentionLabels(), taxonomy.ProtectionLabels()...)
	rights := append(taxonomy.ChoiceLabels(), taxonomy.AccessLabels()...)
	context := func() string {
		if rng.Intn(5) == 0 {
			return ""
		}
		return fmt.Sprintf("We state practice %d in this sentence.", rng.Intn(1000))
	}
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
		for _, asp := range []struct {
			name string
			cats []taxonomy.Category
			mean int
		}{{"types", types, 35}, {"purposes", purposes, 14}} {
			for j := rng.Intn(2 * asp.mean); j > 0; j-- {
				c := asp.cats[rng.Intn(len(asp.cats))]
				d := c.Descriptors[rng.Intn(len(c.Descriptors))].Name
				rec.Annotations = append(rec.Annotations, annotate.Annotation{
					Aspect: asp.name, Meta: c.Meta, Category: c.Name, Descriptor: d,
					Text: d, Context: context(),
				})
			}
		}
		for _, asp := range []struct {
			name   string
			labels []taxonomy.Label
		}{{"handling", handling}, {"rights", rights}} {
			for j := rng.Intn(14); j > 0; j-- {
				l := asp.labels[rng.Intn(len(asp.labels))]
				a := annotate.Annotation{Aspect: asp.name, Meta: l.Group, Category: l.Name,
					Text: l.Name, Context: context()}
				if l.Name == taxonomy.RetentionStated {
					a.RetentionDays = 30 * (1 + rng.Intn(36))
					a.Descriptor = fmt.Sprintf("%d days", a.RetentionDays)
				}
				rec.Annotations = append(rec.Annotations, a)
			}
		}
	}
	return recs
}

// BenchmarkReportTables renders the seven paper tables from a fresh
// Report over a paper-sized seeded corpus: the per-generation table cost
// of a server view build.
func BenchmarkReportTables(b *testing.B) {
	recs := seededCorpus(1, paperCorpusSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tablesSink = renderAll(New(recs, nil))
	}
}

// tablesSink keeps the benchmarked renders live.
var tablesSink []string

// renderAll renders every table a server view holds.
func renderAll(r *Report) []string {
	return []string{
		r.Table1(false).Render(), r.Table1(true).Render(),
		r.Table2Types(false).Render(), r.Table2Types(true).Render(),
		r.Table2Purposes().Render(), r.Table3().Render(), r.Table6(4).Render(),
	}
}
