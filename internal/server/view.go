package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aipan/internal/api"
	"aipan/internal/report"
	"aipan/internal/risk"
	"aipan/internal/store"
)

// view is one immutable, fully indexed snapshot of the dataset. It is
// built once per generation (startup and every Refresh) and swapped in
// atomically, so the request path never takes a lock and never scans
// the record slice: domain lookups hit a hash index, filtered listings
// intersect sorted inverted indexes, and the summary, paper tables, and
// risk ranking are precomputed. Everything derived from a view carries
// its generation, which is what invalidates cached responses and ETags
// when the dataset is refreshed.
type view struct {
	gen      uint64
	records  []store.Record // sorted by domain
	byDomain map[string]int // domain → index into records/rows
	rows     []DomainSummary

	// Inverted indexes: normalized key → ascending row indexes. Row
	// order is domain order, so every index list — and every
	// intersection of them — stays sorted by domain.
	all      []int
	bySector map[string][]int
	byAspect map[string][]int
	byLabel  map[string][]int

	summary     Summary
	summaryJSON []byte
	tables      map[string]string
	risk        []RiskEntry

	// Flight-recorder events, sorted by (Seq, RunID, Domain) so event
	// order — and cursor pagination over it — is deterministic for any
	// EventStore scan order. The indexes hold ascending positions into
	// events, mirroring the record indexes above.
	events          []store.Event
	eventsByDomain  map[string][]int
	eventsByOutcome map[string][]int
}

// Summary is the /v1/summary payload: the corpus funnel plus aspect and
// sector breakdowns, stamped with the serving generation.
type Summary struct {
	Generation   uint64         `json:"generation"`
	Domains      int            `json:"domains"`
	CrawlOK      int            `json:"crawl_ok"`
	ExtractOK    int            `json:"extract_ok"`
	Annotated    int            `json:"annotated"`
	Annotations  int            `json:"annotations"`
	ByAspect     map[string]int `json:"by_aspect"`
	SectorCounts map[string]int `json:"sector_counts"`
	Sectors      []string       `json:"sectors"`
}

// DomainSummary is one /v1/domains row.
type DomainSummary struct {
	Domain      string `json:"domain"`
	Company     string `json:"company"`
	Sector      string `json:"sector"`
	Annotations int    `json:"annotations"`
	CrawlOK     bool   `json:"crawl_ok"`
}

// DomainsPage is the paginated /v1/domains payload. NextCursor is an
// opaque token; pass it back as ?cursor= to fetch the next page.
type DomainsPage struct {
	Domains    []DomainSummary `json:"domains"`
	Total      int             `json:"total"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// RiskEntry is one /v1/risk row (risk.Score with stable snake_case
// field names).
type RiskEntry struct {
	Domain           string  `json:"domain"`
	Company          string  `json:"company"`
	Sector           string  `json:"sector"`
	Collection       float64 `json:"collection"`
	Purpose          float64 `json:"purpose"`
	Safeguards       float64 `json:"safeguards"`
	Penalties        float64 `json:"penalties"`
	Total            float64 `json:"total"`
	SectorPercentile float64 `json:"sector_percentile"`
}

// RiskPage is the /v1/risk payload.
type RiskPage struct {
	Scores []RiskEntry `json:"scores"`
	Total  int         `json:"total"`
}

// tableIDs are the /v1/tables/{table} identifiers, in display order.
var tableIDs = []string{"1", "2a", "2b", "3", "4", "5", "6"}

// buildView indexes a dataset snapshot. The input slices are not
// retained: records are copied and sorted by domain so row order (and
// therefore pagination order) is deterministic for any Source, and
// events are copied and sorted by run order.
func buildView(records []store.Record, events []store.Event, gen uint64) (*view, error) {
	recs := append([]store.Record(nil), records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Domain < recs[j].Domain })

	v := &view{
		gen:      gen,
		records:  recs,
		byDomain: make(map[string]int, len(recs)),
		rows:     make([]DomainSummary, 0, len(recs)),
		all:      make([]int, len(recs)),
		bySector: map[string][]int{},
		byAspect: map[string][]int{},
		byLabel:  map[string][]int{},
		summary: Summary{
			Generation:   gen,
			Domains:      len(recs),
			ByAspect:     map[string]int{},
			SectorCounts: map[string]int{},
		},
	}
	// Filter keys repeat across records (a few dozen sectors, aspects
	// and labels), so each distinct raw key is normalized once per build.
	keys := map[string]string{}
	norm := func(raw string) string {
		k, ok := keys[raw]
		if !ok {
			k = normKey(raw)
			keys[raw] = k
		}
		return k
	}
	seenAspect := map[string]bool{}
	seenLabel := map[string]bool{}
	for i := range recs {
		rec := &recs[i]
		v.all[i] = i
		v.byDomain[rec.Domain] = i
		v.rows = append(v.rows, DomainSummary{
			Domain: rec.Domain, Company: rec.Company, Sector: rec.SectorAbbrev,
			Annotations: len(rec.Annotations), CrawlOK: rec.Crawl.Success,
		})
		sector := norm(rec.SectorAbbrev)
		v.bySector[sector] = append(v.bySector[sector], i)
		if rec.Crawl.Success {
			v.summary.CrawlOK++
		}
		if rec.Extraction.Success {
			v.summary.ExtractOK++
		}
		if rec.Annotated() {
			v.summary.Annotated++
		}
		v.summary.SectorCounts[rec.SectorAbbrev]++
		v.summary.Annotations += len(rec.Annotations)
		clear(seenAspect)
		clear(seenLabel)
		for _, a := range rec.Annotations {
			v.summary.ByAspect[a.Aspect]++
			if k := norm(a.Aspect); !seenAspect[k] {
				seenAspect[k] = true
				v.byAspect[k] = append(v.byAspect[k], i)
			}
			if k := norm(a.Category); k != "" && !seenLabel[k] {
				seenLabel[k] = true
				v.byLabel[k] = append(v.byLabel[k], i)
			}
		}
	}
	for sector := range v.summary.SectorCounts {
		v.summary.Sectors = append(v.summary.Sectors, sector)
	}
	sort.Strings(v.summary.Sectors)

	var err error
	if v.summaryJSON, err = json.MarshalIndent(v.summary, "", "  "); err != nil {
		return nil, fmt.Errorf("server: encoding summary: %w", err)
	}
	v.summaryJSON = append(v.summaryJSON, '\n')

	rep := report.New(recs, nil)
	v.tables = map[string]string{
		"1":  rep.Table1(false).Render(),
		"4":  rep.Table1(true).Render(),
		"2a": rep.Table2Types(false).Render(),
		"5":  rep.Table2Types(true).Render(),
		"2b": rep.Table2Purposes().Render(),
		"3":  rep.Table3().Render(),
		"6":  rep.Table6(4).Render(),
	}

	for _, sc := range risk.ScoreAll(recs, risk.DefaultWeights()) {
		v.risk = append(v.risk, RiskEntry{
			Domain: sc.Domain, Company: sc.Company, Sector: sc.Sector,
			Collection: sc.Collection, Purpose: sc.Purpose,
			Safeguards: sc.Safeguards, Penalties: sc.Penalties,
			Total: sc.Total, SectorPercentile: sc.SectorPercentile,
		})
	}

	v.events = append([]store.Event(nil), events...)
	sort.Slice(v.events, func(i, j int) bool {
		a, b := &v.events[i], &v.events[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.RunID != b.RunID {
			return a.RunID < b.RunID
		}
		return a.Domain < b.Domain
	})
	v.eventsByDomain = map[string][]int{}
	v.eventsByOutcome = map[string][]int{}
	for i := range v.events {
		e := &v.events[i]
		v.eventsByDomain[e.Domain] = append(v.eventsByDomain[e.Domain], i)
		outcome := norm(e.Outcome)
		v.eventsByOutcome[outcome] = append(v.eventsByOutcome[outcome], i)
	}
	return v, nil
}

// normKey normalizes a filter key (sector abbreviation, aspect, label
// category) for index lookup: filters are case-insensitive.
func normKey(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// domainsQuery is a parsed, validated /v1/domains request.
type domainsQuery struct {
	sector, aspect, label string
	limit                 int
	cursor                string // decoded: list rows with Domain > cursor
}

// domainsPage filters via the inverted indexes and paginates with a
// cursor — O(filter result + log n), never O(dataset) per request.
func (v *view) domainsPage(q domainsQuery) *DomainsPage {
	idx := v.all
	for _, f := range []struct {
		val   string
		index map[string][]int
	}{
		{q.sector, v.bySector},
		{q.aspect, v.byAspect},
		{q.label, v.byLabel},
	} {
		if f.val == "" {
			continue
		}
		idx = intersect(idx, f.index[normKey(f.val)])
		if len(idx) == 0 {
			break
		}
	}

	// Row indexes ascend in domain order, so the cursor position is a
	// binary search for the first row past the cursor domain.
	pos := 0
	if q.cursor != "" {
		pos = sort.Search(len(idx), func(i int) bool { return v.rows[idx[i]].Domain > q.cursor })
	}
	page := &DomainsPage{Total: len(idx), Domains: []DomainSummary{}}
	end := pos + q.limit
	if end > len(idx) {
		end = len(idx)
	}
	for _, i := range idx[pos:end] {
		page.Domains = append(page.Domains, v.rows[i])
	}
	if end < len(idx) {
		page.NextCursor = encodeCursor(v.rows[idx[end-1]].Domain)
	}
	return page
}

// EventsPage is the paginated /v1/events payload.
type EventsPage struct {
	Events     []store.Event `json:"events"`
	Total      int           `json:"total"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// ProvenancePage is the /v1/domains/{domain}/provenance payload.
type ProvenancePage struct {
	Domain string        `json:"domain"`
	Events []store.Event `json:"events"`
	Total  int           `json:"total"`
}

// eventsQuery is a parsed, validated /v1/events request. cursor is the
// view-local position of the last event served (-1 = start); positions
// are stable for the lifetime of a generation, and the generation-keyed
// ETag invalidates any cursor that outlives a refresh.
type eventsQuery struct {
	outcome string
	limit   int
	cursor  int
}

// eventsPage filters the event stream by outcome and paginates it.
func (v *view) eventsPage(q eventsQuery) *EventsPage {
	idx := v.eventsByOutcome[normKey(q.outcome)]
	if q.outcome == "" {
		idx = make([]int, len(v.events))
		for i := range idx {
			idx[i] = i
		}
	}
	pos := 0
	if q.cursor >= 0 {
		pos = sort.SearchInts(idx, q.cursor+1)
	}
	page := &EventsPage{Total: len(idx), Events: []store.Event{}}
	end := pos + q.limit
	if end > len(idx) {
		end = len(idx)
	}
	for _, i := range idx[pos:end] {
		page.Events = append(page.Events, v.events[i])
	}
	if end < len(idx) {
		page.NextCursor = encodeCursor(strconv.Itoa(idx[end-1]))
	}
	return page
}

// provenance returns every recorded event for one domain, in run order.
func (v *view) provenance(domain string) *ProvenancePage {
	idx := v.eventsByDomain[domain]
	page := &ProvenancePage{Domain: domain, Events: []store.Event{}, Total: len(idx)}
	for _, i := range idx {
		page.Events = append(page.Events, v.events[i])
	}
	return page
}

// intersect merges two ascending index lists.
func intersect(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Cursors are opaque to clients: the base64url-encoded domain of the
// last row served (shared machinery in internal/api). Encoding keeps
// clients from treating them as data and keeps URL-unsafe domain bytes
// out of query strings.
func encodeCursor(domain string) string { return api.EncodeCursor(domain) }

func decodeCursor(s string) (string, error) { return api.DecodeCursor(s) }
