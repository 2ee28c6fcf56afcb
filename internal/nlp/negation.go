package nlp

import "strings"

// negationCues start a negated scope within a sentence.
var negationCues = map[string]bool{
	"not": true, "never": true, "don't": true, "doesn't": true,
	"won't": true, "cannot": true, "can't": true, "didn't": true,
	"neither": true, "nor": true, "without": true,
}

// scopeBreakers end a negation scope early.
var scopeBreakers = map[string]bool{
	"but": true, "however": true, "although": true, "though": true,
	"except": true, "unless": true,
}

// negScopeLen is how many tokens after a cue remain negated. Privacy-policy
// sentences are long; a generous window catches "we do not collect or store
// your biometric data".
const negScopeLen = 12

// NegatedPositions returns, for the token sequence of sentence, a boolean
// mask marking tokens inside a negated scope.
func NegatedPositions(sentence string) ([]string, []bool) {
	ws := Words(sentence)
	mask := make([]bool, len(ws))
	until := -1
	for i, w := range ws {
		if scopeBreakers[w] {
			until = -1
		}
		if negationCues[w] {
			until = i + negScopeLen
		}
		if until >= 0 && i <= until && !negationCues[w] {
			mask[i] = true
		}
	}
	return ws, mask
}

// hypotheticalMarkers flag sentences that describe what a policy does NOT
// govern ("this privacy notice does not apply to...") or purely
// hypothetical collection.
var hypotheticalPhrases = []string{
	"does not apply",
	"do not apply",
	"is not covered",
	"are not covered",
	"not governed by",
	"outside the scope",
}

// IsNegatedMention reports whether the mention (a phrase) occurring in
// sentence sits inside a negated or hypothetical context. A GPT-4-class
// chatbot is instructed to — and does — skip these; weaker models don't
// (§6: Llama-3.1 "tends to extract data types mentioned in negated
// contexts").
func IsNegatedMention(sentence, mention string) bool {
	low := strings.ToLower(sentence)
	for _, p := range hypotheticalPhrases {
		if strings.Contains(low, p) {
			return true
		}
	}
	ws, mask := NegatedPositions(sentence)
	start, end, ok := findIn(ws, mention)
	if !ok {
		return false
	}
	for i := start; i < end; i++ {
		if mask[i] {
			return true
		}
	}
	return false
}

// findIn locates the stemmed words of phrase contiguously (gap ≤ 2) in ws.
func findIn(ws []string, phrase string) (int, int, bool) {
	pw := Words(phrase)
	if len(pw) == 0 {
		return 0, 0, false
	}
	target := make([]string, len(pw))
	for i, w := range pw {
		target[i] = Singular(w)
	}
	stemmed := make([]string, len(ws))
	for i, w := range ws {
		stemmed[i] = Singular(w)
	}
	for i := range stemmed {
		if stemmed[i] != target[0] {
			continue
		}
		j, pos := 1, i
		for j < len(target) {
			found := -1
			for k := pos + 1; k <= pos+3 && k < len(stemmed); k++ {
				if stemmed[k] == target[j] {
					found = k
					break
				}
			}
			if found < 0 {
				break
			}
			pos, j = found, j+1
		}
		if j == len(target) {
			return i, pos + 1, true
		}
	}
	return 0, 0, false
}

// SentenceOf returns the sentence of text that contains the phrase
// (stemmed, in order), or the whole text if none matches. It is used to
// recover the "context" column of Table 6. The phrase is stemmed once and
// each sentence is tokenized into a reused scratch buffer — the per-call
// behavior of ContainsWords without its per-sentence re-tokenization.
func SentenceOf(text, phrase string) string {
	pw := StemmedWords(phrase)
	if len(pw) == 0 {
		return text
	}
	var spans [16]Span
	var scratch []string
	for _, sp := range AppendSentenceSpans(spans[:0], text) {
		s := text[sp.Start:sp.End]
		scratch = AppendWords(scratch[:0], s)
		j := 0
		for _, w := range scratch {
			if j < len(pw) && Singular(w) == pw[j] {
				j++
			}
		}
		if j == len(pw) {
			return s
		}
	}
	return text
}
