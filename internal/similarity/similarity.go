// Package similarity implements the string-similarity measures the paper's
// experimental setup uses (§VIII-A): Jaccard over token sets, Jaro-Winkler,
// and weighted aggregation of per-attribute similarities where each
// attribute's weight is proportional to its number of distinct values. A few
// additional classical measures (Levenshtein, cosine over term frequencies)
// are provided for feature construction in the SVM reference classifier.
package similarity

import (
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf8"
)

// ErrBadWeights reports invalid attribute weights in an aggregator.
var ErrBadWeights = errors.New("similarity: invalid weights")

// Tokenize lower-cases s and splits it into alphanumeric tokens. All other
// runes act as separators.
func Tokenize(s string) []string {
	var tokens []string
	sc := tokenScanner{s: s}
	for tok, ok := sc.next(); ok; tok, ok = sc.next() {
		tokens = append(tokens, string(tok))
	}
	return tokens
}

// tokenScanner yields the tokens of s one at a time, lower-cased into a
// reusable byte buffer: the one implementation of Tokenize's rules, shared
// by Tokenize and the interning paths, which look tokens up without
// allocating a string per token. A rune is a token character when it is a
// letter or a digit (unicode.IsLetter, unicode.IsDigit), and is lowered by
// unicode.ToLower; every other rune, an invalid UTF-8 byte included (it
// decodes to utf8.RuneError, a symbol), separates tokens. ASCII bytes take
// a fast path with the same result.
type tokenScanner struct {
	s   string // the unscanned rest
	buf []byte
}

// next returns the next token, valid until the following call, or false
// when s holds no more tokens.
func (sc *tokenScanner) next() ([]byte, bool) {
	s, buf := sc.s, sc.buf[:0]
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				buf = append(buf, c)
				continue
			case 'A' <= c && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				continue
			}
		}
		if len(buf) > 0 {
			break // a separator ends the token
		}
	}
	sc.s, sc.buf = s[i:], buf
	return buf, len(buf) > 0
}

// TokenSet returns the distinct tokens of s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, tok := range Tokenize(s) {
		set[tok] = struct{}{}
	}
	return set
}

// Jaccard returns |A∩B| / |A∪B| over the token sets of a and b.
// Two empty strings are defined to have similarity 1; one empty side gives 0.
func Jaccard(a, b string) float64 {
	sa, sb := TokenSet(a), TokenSet(b)
	return JaccardSets(sa, sb)
}

// JaccardSets computes the Jaccard coefficient of two pre-tokenized sets.
func JaccardSets(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	small, large := sa, sb
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for tok := range small {
		if _, ok := large[tok]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// Jaro returns the Jaro similarity of two strings in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard scaling
// factor p = 0.1 and prefix length capped at 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Levenshtein returns the edit distance between a and b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// LevenshteinSim normalizes edit distance into a similarity in [0,1].
func LevenshteinSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	d := Levenshtein(a, b)
	longest := max(la, lb)
	return 1 - float64(d)/float64(longest)
}

// Cosine returns the cosine similarity of the term-frequency vectors of a
// and b.
func Cosine(a, b string) float64 {
	fa := termFreq(a)
	fb := termFreq(b)
	if len(fa) == 0 && len(fb) == 0 {
		return 1
	}
	if len(fa) == 0 || len(fb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for tok, ca := range fa {
		na += float64(ca) * float64(ca)
		if cb, ok := fb[tok]; ok {
			dot += float64(ca) * float64(cb)
		}
	}
	for _, cb := range fb {
		nb += float64(cb) * float64(cb)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func termFreq(s string) map[string]int {
	freq := make(map[string]int)
	for _, tok := range Tokenize(s) {
		freq[tok]++
	}
	return freq
}

// Measure is a named pairwise string-similarity function in [0,1].
type Measure struct {
	Name string
	Func func(a, b string) float64
}

// Aggregator combines per-attribute similarities into a single pair
// similarity using fixed non-negative weights that sum to 1 (the paper
// aggregates "attribute similarities with weights", §VIII-A).
type Aggregator struct {
	measures []Measure
	weights  []float64
}

// NewAggregator builds an aggregator from parallel slices of measures and
// raw (unnormalized) weights. Weights must be non-negative with a positive
// sum; they are normalized internally.
func NewAggregator(measures []Measure, weights []float64) (*Aggregator, error) {
	if len(measures) == 0 {
		return nil, fmt.Errorf("%w: no measures", ErrBadWeights)
	}
	if len(measures) != len(weights) {
		return nil, fmt.Errorf("%w: %d measures but %d weights", ErrBadWeights, len(measures), len(weights))
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("%w: weight %d is negative (%v)", ErrBadWeights, i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: weights sum to %v", ErrBadWeights, sum)
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	ms := make([]Measure, len(measures))
	copy(ms, measures)
	return &Aggregator{measures: ms, weights: norm}, nil
}

// Weights returns the normalized weights.
func (g *Aggregator) Weights() []float64 {
	out := make([]float64, len(g.weights))
	copy(out, g.weights)
	return out
}

// Similarity aggregates the per-attribute similarities of two attribute
// tuples. Both tuples must have one value per measure.
func (g *Aggregator) Similarity(a, b []string) (float64, error) {
	if len(a) != len(g.measures) || len(b) != len(g.measures) {
		return 0, fmt.Errorf("%w: tuple lengths (%d, %d) do not match %d measures", ErrBadWeights, len(a), len(b), len(g.measures))
	}
	var sum float64
	for i, m := range g.measures {
		sum += g.weights[i] * m.Func(a[i], b[i])
	}
	return sum, nil
}

// Features returns the raw per-attribute similarity vector, used as the SVM
// feature representation.
func (g *Aggregator) Features(a, b []string) ([]float64, error) {
	if len(a) != len(g.measures) || len(b) != len(g.measures) {
		return nil, fmt.Errorf("%w: tuple lengths (%d, %d) do not match %d measures", ErrBadWeights, len(a), len(b), len(g.measures))
	}
	out := make([]float64, len(g.measures))
	for i, m := range g.measures {
		out[i] = m.Func(a[i], b[i])
	}
	return out, nil
}

// DistinctValueWeights derives attribute weights from columnar data: the
// weight of attribute i is the number of distinct values observed in
// columns[i], following the paper's rule ("the weight of each attribute is
// determined by the number of its distinct attribute values").
func DistinctValueWeights(columns [][]string) []float64 {
	out := make([]float64, len(columns))
	for i, col := range columns {
		seen := make(map[string]struct{}, len(col))
		for _, v := range col {
			seen[v] = struct{}{}
		}
		out[i] = float64(len(seen))
	}
	return out
}
