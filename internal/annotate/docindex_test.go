package annotate

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"aipan/internal/nlp"
	"aipan/internal/russell"
	"aipan/internal/textify"
	"aipan/internal/webgen"
)

// docOf renders text as a document, one line per newline-separated part.
func docOf(text string) *textify.Document {
	doc := &textify.Document{}
	for i, l := range strings.Split(text, "\n") {
		doc.Lines = append(doc.Lines, textify.Line{Number: i + 1, Text: l})
	}
	return doc
}

// checkIndex asserts that every docIndex query equals its nlp reference
// on doc for phrase: lineContains ≡ nlp.ContainsWords, anywhere ≡ "some
// line ContainsWords", sentenceOf ≡ nlp.SentenceOf. Lines are queried in
// reverse order, and the posting map is built after half of them, so the
// lazy fill is exercised in an order other than the document's.
func checkIndex(t *testing.T, doc *textify.Document, phrase string) {
	t.Helper()
	ix := newDocIndex(doc)
	pw := nlp.StemmedWords(phrase)
	wantAnywhere := false
	for li := len(doc.Lines) - 1; li >= 0; li-- {
		text := doc.Lines[li].Text
		want := nlp.ContainsWords(text, phrase)
		wantAnywhere = wantAnywhere || want
		if got := ix.lineContains(li, pw); got != want {
			t.Fatalf("lineContains(%q, %q) = %v, want %v", text, phrase, got, want)
		}
		if got, want := ix.sentenceOf(li, pw), nlp.SentenceOf(text, phrase); got != want {
			t.Fatalf("sentenceOf(%q, %q) = %q, want %q", text, phrase, got, want)
		}
		if li == len(doc.Lines)/2 {
			ix.postings()
		}
	}
	if got := ix.anywhere(pw); got != wantAnywhere {
		t.Fatalf("anywhere(%q) = %v, want %v", phrase, got, wantAnywhere)
	}
	// A fresh index answering the whole-policy query first builds its
	// postings from no filled lines at all.
	if got := newDocIndex(doc).anywhere(pw); got != wantAnywhere {
		t.Fatalf("anywhere(%q) on a fresh index = %v, want %v", phrase, got, wantAnywhere)
	}
	if ix.lineContains(-1, pw) || ix.lineContains(len(doc.Lines), pw) || ix.sentenceOf(len(doc.Lines), pw) != "" {
		t.Fatalf("out-of-range line answered for %q", phrase)
	}
}

// indexSeeds are hand-written cases for the tokenizer's and the sentence
// splitter's edges: abbreviations, decimals, typographic apostrophes,
// hyphens, mixed case and non-ASCII text.
var indexSeeds = [][2]string{
	{"We collect your email addresses, e.g. work e-mail. We retain logs for 2.5 years.", "email address"},
	{"Cookies are small files; we use them. Third-party cookies help U.S. partners.", "third-party cookie"},
	{"We don’t sell data. You can’t opt-out of security logs!", "don't sell data"},
	{"Wir erheben Ihre E-Mail-Adresse. Données personnelles: nom, prénom.", "données personnelles"},
	{"Retention: 3.5 years.  Then deleted?  Yes.\nSecond line i.e. another sentence. Final", "deleted"},
	{"  leading space. trailing hyphen- . apostrophe' end", "hyphen"},
	{"ÉCOLE élève ÅNGSTRÖM. ΣΊΣΥΦΟΣ σίσυφος", "σίσυφος"},
	{"Children's data; Analyses of addresses.", "child's data analysis address"},
	{"no terminal punctuation here", "terminal here"},
	{"...;;!!??", "x"},
	{"", "anything"},
	{"Email us.", ""},
	{"Email us.", "!!!"},
	{"bad utf8 \xff\xfe mixed. Caf\xc3 next", "next"},
}

// webgenSeeds draws, from each of the first n healthy synthetic sites, a
// window of rendered policy lines around the first line holding a planted
// type surface, paired with that surface — the text the pipeline really
// annotates.
func webgenSeeds(t testing.TB, n int) [][2]string {
	t.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	var out [][2]string
	for _, s := range g.Sites() {
		if len(out) == n {
			break
		}
		if s.Failure != webgen.FailNone || len(s.Truth.Types) == 0 {
			continue
		}
		surface := s.Truth.Types[0].Surface
		pages := g.RenderSite(s.Domain)
		paths := make([]string, 0, len(pages))
		for path := range pages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
	pages:
		for _, path := range paths {
			lines := textify.RenderHTML(pages[path].Body).Lines
			for i, l := range lines {
				if !nlp.ContainsWords(l.Text, surface) {
					continue
				}
				var texts []string
				for _, w := range lines[max(0, i-6):min(len(lines), i+6)] {
					texts = append(texts, w.Text)
				}
				out = append(out, [2]string{strings.Join(texts, "\n"), surface})
				break pages
			}
		}
	}
	if len(out) < n {
		t.Fatalf("found %d of %d seed policies", len(out), n)
	}
	return out
}

func FuzzDocIndex(f *testing.F) {
	for _, s := range indexSeeds {
		f.Add(s[0], s[1])
	}
	for _, s := range webgenSeeds(f, 8) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, phrase string) {
		checkIndex(t, docOf(text), phrase)
	})
}

// TestDocIndexMatchesReferenceOnPolicies runs the equivalence over every
// line of rendered synthetic policies, for each of the site's planted
// type surfaces.
func TestDocIndexMatchesReferenceOnPolicies(t *testing.T) {
	for _, s := range webgenSeeds(t, 40) {
		checkIndex(t, docOf(s[0]), s[1])
		for _, w := range strings.Fields(s[1]) {
			checkIndex(t, docOf(s[0]), w)
		}
	}
}

// TestDocIndexConcurrentAspects drives one index from four goroutines, as
// the four aspects share a document: each checks every line, the context
// sentence and the whole-policy fallback against the nlp reference.
func TestDocIndexConcurrentAspects(t *testing.T) {
	seeds := webgenSeeds(t, 4)
	var text strings.Builder
	var phrases []string
	for _, s := range seeds {
		text.WriteString(s[0])
		text.WriteString("\n")
		phrases = append(phrases, s[1])
	}
	phrases = append(phrases, "no such phrase anywhere")
	doc := docOf(text.String())
	ix := newDocIndex(doc)
	var wg sync.WaitGroup
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := range phrases {
				phrase := phrases[(i+a)%len(phrases)]
				pw := nlp.StemmedWords(phrase)
				some := false
				for k := range doc.Lines {
					li := (k + a*len(doc.Lines)/4) % len(doc.Lines) // each aspect starts elsewhere
					text := doc.Lines[li].Text
					want := nlp.ContainsWords(text, phrase)
					some = some || want
					if got := ix.lineContains(li, pw); got != want {
						t.Errorf("aspect %d: lineContains(%q, %q) = %v", a, text, phrase, got)
					}
					if got, want := ix.sentenceOf(li, pw), nlp.SentenceOf(text, phrase); got != want {
						t.Errorf("aspect %d: sentenceOf(%q, %q) = %q, want %q", a, text, phrase, got, want)
					}
				}
				if got := ix.anywhere(pw); got != some {
					t.Errorf("aspect %d: anywhere(%q) = %v, want %v", a, phrase, got, some)
				}
			}
		}(a)
	}
	wg.Wait()
}
