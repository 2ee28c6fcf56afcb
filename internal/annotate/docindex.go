package annotate

import (
	"sync"

	"aipan/internal/nlp"
	"aipan/internal/textify"
)

// docIndex is the per-document token index behind the hallucination
// filter and the Table 6 context column. A line is tokenized and stemmed
// the first time any aspect references it, and the result is cached
// together with each token's start byte, so the filter's line check and
// the context-sentence lookup read the same tokens. Most checks only touch
// the cited line, so most lines are never tokenized at all. The posting
// map from stemmed token to lines — needed only for the filter's lenient
// whole-policy second chance — is built on the first line miss.
//
// The four aspects share one docIndex concurrently; mu guards the lazy
// fill. Filled regions of toks and starts are never written again (later
// fills only append), so a line's slices stay valid after mu is released.
type docIndex struct {
	lines []textify.Line

	mu sync.Mutex
	// toks holds the stemmed tokens of every filled line back-to-back in
	// one shared buffer, and starts each token's byte offset in its line;
	// span[li] delimits line li once it is filled.
	toks   []string
	starts []int
	span   []lineSpan
	// byWord maps a stemmed token to the ascending indexes of the lines
	// containing it; nil until the first line miss.
	byWord map[string][]int
}

// lineSpan is a line's range of toks/starts, valid once filled is set.
type lineSpan struct {
	lo, hi int32
	filled bool
}

func newDocIndex(doc *textify.Document) *docIndex {
	return &docIndex{lines: doc.Lines, span: make([]lineSpan, len(doc.Lines))}
}

// fill tokenizes and stems line li into the shared buffers unless it is
// already there. ix.mu must be held.
func (ix *docIndex) fill(li int) {
	if ix.span[li].filled {
		return
	}
	lo := len(ix.toks)
	ix.toks, ix.starts = nlp.AppendWordStarts(ix.toks, ix.starts, ix.lines[li].Text)
	for j := lo; j < len(ix.toks); j++ {
		ix.toks[j] = nlp.Singular(ix.toks[j])
	}
	ix.span[li] = lineSpan{lo: int32(lo), hi: int32(len(ix.toks)), filled: true}
}

// line returns the stemmed tokens of line li and their start offsets,
// tokenizing the line on first use.
func (ix *docIndex) line(li int) ([]string, []int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.fill(li)
	sp := ix.span[li]
	return ix.toks[sp.lo:sp.hi:sp.hi], ix.starts[sp.lo:sp.hi:sp.hi]
}

// postings returns the word → lines posting map, tokenizing every line
// that is not yet filled and building the map on first use.
func (ix *docIndex) postings() map[string][]int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.byWord == nil {
		ix.byWord = map[string][]int{}
		for li := range ix.lines {
			ix.fill(li)
			sp := ix.span[li]
			for _, w := range ix.toks[sp.lo:sp.hi] {
				post := ix.byWord[w]
				if len(post) == 0 || post[len(post)-1] != li {
					ix.byWord[w] = append(post, li)
				}
			}
		}
	}
	return ix.byWord
}

// valid reports whether li indexes a line of the document.
func (ix *docIndex) valid(li int) bool {
	return li >= 0 && li < len(ix.lines)
}

// lineContains reports whether the line at index li contains the stemmed
// phrase pw (nlp.StemmedWords) as an ordered, possibly discontinuous
// subsequence — exactly nlp.ContainsWords(lineText, phrase).
func (ix *docIndex) lineContains(li int, pw []string) bool {
	if len(pw) == 0 || !ix.valid(li) {
		return false
	}
	toks, _ := ix.line(li)
	return matched(toks, pw) == len(pw)
}

// matched returns how many leading words of pw occur in toks in order.
func matched(toks, pw []string) int {
	j := 0
	for _, w := range toks {
		if j < len(pw) && w == pw[j] {
			j++
		}
	}
	return j
}

// anywhere reports whether any line of the document contains pw. Candidate
// lines come from the shortest posting list among pw's tokens (a line that
// matches must contain every token), so large policies no longer pay a
// full-document scan per mention.
func (ix *docIndex) anywhere(pw []string) bool {
	if len(pw) == 0 {
		return false
	}
	byWord := ix.postings()
	var cand []int
	for i, w := range pw {
		post, ok := byWord[w]
		if !ok {
			return false
		}
		if i == 0 || len(post) < len(cand) {
			cand = post
		}
	}
	for _, li := range cand {
		if ix.lineContains(li, pw) {
			return true
		}
	}
	return false
}

// sentenceOf returns the sentence of line li that contains pw, read from
// the cached tokens — exactly nlp.SentenceOf(lineText, phrase): the whole
// line when pw is empty or no sentence matches, "" when li is no line.
// A token never straddles a sentence boundary, so the tokens of a sentence
// are the line's tokens that start inside its span.
func (ix *docIndex) sentenceOf(li int, pw []string) string {
	if !ix.valid(li) {
		return ""
	}
	text := ix.lines[li].Text
	if len(pw) == 0 {
		return text
	}
	toks, starts := ix.line(li)
	var spans [16]nlp.Span
	k := 0
	for _, sp := range nlp.AppendSentenceSpans(spans[:0], text) {
		lo := k
		for k < len(starts) && starts[k] < sp.End {
			k++
		}
		if matched(toks[lo:k], pw) == len(pw) {
			return text[sp.Start:sp.End]
		}
	}
	return text
}
