package report

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aipan/internal/annotate"
	"aipan/internal/engine"
	"aipan/internal/store"
)

// referenceAggregate is the per-call rollup the one-pass rollup
// replaced, kept as the equivalence reference: it re-scans every
// annotated record for one aspect, with two maps per domain and a
// meta|category|descriptor string as the dedup key. Its counts are then
// laid out as an aggregate so the tables render from it unchanged.
func referenceAggregate(r *Report, aspect string) *aggregate {
	type domainAgg struct {
		byCat  map[catKey]int
		byMeta map[string]int
	}
	metaTotals := map[string]int{}
	catTotals := map[catKey]int{}
	descTotals := map[catKey]map[string]int{}
	total := 0
	var perDomain []domainAgg
	for _, rec := range r.annotated {
		da := domainAgg{byCat: map[catKey]int{}, byMeta: map[string]int{}}
		seenDesc := map[string]bool{}
		for _, ann := range rec.Annotations {
			if ann.Aspect != aspect {
				continue
			}
			key := catKey{ann.Meta, ann.Category}
			dk := ann.Descriptor
			if dk == "" {
				dk = ann.Category
			}
			uniq := key.meta + "|" + key.cat + "|" + dk
			if seenDesc[uniq] {
				continue
			}
			seenDesc[uniq] = true
			total++
			metaTotals[ann.Meta]++
			catTotals[key]++
			if descTotals[key] == nil {
				descTotals[key] = map[string]int{}
			}
			descTotals[key][dk]++
			da.byCat[key]++
			da.byMeta[ann.Meta]++
		}
		perDomain = append(perDomain, da)
	}

	sectors := make([]string, len(r.annotated))
	for i, rec := range r.annotated {
		sectors[i] = rec.SectorAbbrev
	}
	a := newAggregate(sectors)
	a.total = total
	for meta, n := range metaTotals {
		c := &cell{total: n, perDomain: make([]int32, len(sectors))}
		for i, da := range perDomain {
			c.perDomain[i] = int32(da.byMeta[meta])
		}
		a.metas[meta] = c
	}
	for key, n := range catTotals {
		c := &cell{total: n, perDomain: make([]int32, len(sectors)),
			descs: map[string]*descStat{}, meta: a.metas[key.meta]}
		for d, dn := range descTotals[key] {
			c.descs[d] = &descStat{count: dn, last: -1}
		}
		for i, da := range perDomain {
			c.perDomain[i] = int32(da.byCat[key])
		}
		a.cats[key] = c
	}
	for i, da := range perDomain {
		a.distinctCats[i] = int32(len(da.byCat))
		for _, n := range da.byCat {
			a.uniqueAnns[i] += int32(n)
		}
	}
	return a
}

// withReferenceRollup returns a Report over records whose tables come
// from referenceAggregate.
func withReferenceRollup(records []store.Record) *Report {
	r := New(records, nil)
	r.rollupOnce.Do(func() {
		for _, aspect := range aspectOrder {
			r.rollup = append(r.rollup, referenceAggregate(r, aspect))
		}
	})
	return r
}

// edgeCorpus is a seeded corpus plus the cases the rollup must get
// right: repeated (meta, category, descriptor) triples in one domain,
// empty descriptors on types, an aspect outside the four, and categories
// and descriptors that contain '|' (chosen so that no two distinct
// triples join to the same meta|category|descriptor string).
func edgeCorpus(seed int64, n int) []store.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := seededCorpus(seed, n)
	for i := range recs {
		rec := &recs[i]
		if len(rec.Annotations) == 0 {
			continue
		}
		for j := rng.Intn(4); j > 0; j-- {
			rec.Annotations = append(rec.Annotations, rec.Annotations[rng.Intn(len(rec.Annotations))])
		}
		pick := rec.Annotations[rng.Intn(len(rec.Annotations))]
		switch rng.Intn(5) {
		case 0:
			pick.Descriptor = ""
		case 1:
			pick.Aspect = "sharing"
		case 2:
			pick.Descriptor += "|" + pick.Descriptor
		case 3:
			pick.Category += " | legacy"
		}
		rec.Annotations = append(rec.Annotations, pick)
		rng.Shuffle(len(rec.Annotations), func(a, b int) {
			rec.Annotations[a], rec.Annotations[b] = rec.Annotations[b], rec.Annotations[a]
		})
	}
	return recs
}

func TestRollupMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		recs := edgeCorpus(seed, 40+int(seed)*20)
		got, want := New(recs, nil), withReferenceRollup(recs)
		gotTables, wantTables := renderAll(got), renderAll(want)
		for i := range wantTables {
			if gotTables[i] != wantTables[i] {
				t.Fatalf("seed %d: table %d differs\ngot:\n%s\nwant:\n%s", seed, i, gotTables[i], wantTables[i])
			}
		}
		if g, w := got.CategoryDistribution(), want.CategoryDistribution(); g != w {
			t.Fatalf("seed %d: distribution %+v, reference %+v", seed, g, w)
		}
		for i, aspect := range aspectOrder {
			if g, w := got.rollup[i], want.rollup[i]; !reflect.DeepEqual(stripLast(g), stripLast(w)) {
				t.Fatalf("seed %d: %s aggregate differs from the reference", seed, aspect)
			}
		}
		if a := got.aggregateAspect("sharing"); a.total != 0 || len(a.cats) != 0 || len(a.sectors) != got.AnnotatedCount() {
			t.Fatalf("seed %d: aspect outside the four aggregated %d annotations over %d domains", seed, a.total, len(a.sectors))
		}
	}
}

// stripLast clears the dedup bookkeeping, which the reference does not
// keep, so two aggregates compare on their counts alone.
func stripLast(a *aggregate) *aggregate {
	for _, c := range a.cats {
		for _, d := range c.descs {
			d.last = -1
		}
	}
	return a
}

// TestRollupKeepsSeparatorTriplesApart pins the one intended difference
// from the reference: its "meta|category|descriptor" dedup key joined
// ("a|b", "c") and ("a", "b|c") into one annotation; the rollup counts
// them as the two distinct annotations they are.
func TestRollupKeepsSeparatorTriplesApart(t *testing.T) {
	recs := []store.Record{{
		Domain: "a.example.com", SectorAbbrev: "CD",
		Annotations: []annotate.Annotation{
			{Aspect: "types", Meta: "M", Category: "a|b", Descriptor: "c", Context: "x"},
			{Aspect: "types", Meta: "M", Category: "a", Descriptor: "b|c", Context: "x"},
			{Aspect: "types", Meta: "M", Category: "a", Descriptor: "b|c", Context: "x"},
		},
	}}
	r := New(recs, nil)
	if got := r.aggregateAspect("types").total; got != 2 {
		t.Errorf("rollup counted %d unique annotations, want 2", got)
	}
	if got := r.CategoryDistribution(); got.CDMeanCats != 2 || got.CDMeanDescs != 2 {
		t.Errorf("distribution = %+v, want 2 categories and 2 descriptors", got)
	}
	if got := referenceAggregate(r, "types").total; got != 1 {
		t.Errorf("reference counted %d; the joined string key merges the pair into 1", got)
	}
}

// TestTablesConcurrentRender renders every table from one Report in
// several goroutines at once; under -race this checks that the lazily
// built rollup is shared safely, and each goroutine must see the same
// bytes as a serial render.
func TestTablesConcurrentRender(t *testing.T) {
	recs := edgeCorpus(3, 200)
	want := renderAll(New(recs, nil))
	r := New(recs, nil)
	g, _ := engine.NewGroup(context.Background())
	for w := 0; w < 6; w++ {
		g.Go(func(context.Context) error {
			got := renderAll(r)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("table %d differs under concurrent render", i)
				}
			}
			_ = r.CategoryDistribution()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}
