package similarity

import (
	"math"
	"slices"
)

// This file holds the interned, allocation-conscious forms of the string
// measures: token ids instead of token strings, sorted-slice set operations
// instead of maps, and caller-provided scratch buffers instead of per-call
// allocations. Each kernel is formula-identical to its string-based
// counterpart — same counts, same float operations in an order-insensitive
// arrangement — so a scorer built on these representations produces
// bit-identical similarities to one calling the string functions directly.
// The equivalence tests in internal/blocking hold both paths to that.

// Interner assigns dense int32 ids to token strings in first-seen order.
// Interning the same token twice returns the same id, so a token set or
// term-frequency vector can be represented as sorted id slices and compared
// by linear merge with zero allocation. An Interner is not safe for
// concurrent mutation; build it once during preprocessing and share it
// read-only afterwards. InternTokens and InternTermFreq count as mutation
// even when every token is already known: they reuse the interner's
// scratch.
type Interner struct {
	ids    map[string]int32
	toks   []string
	hashes []uint64

	// Scratch of InternTokens and InternTermFreq: the token scanner's
	// buffer and the ids of the string being interned.
	buf []byte
	scr []int32
}

// NewInterner returns an empty dictionary.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// Intern returns the id of tok, assigning the next free id on first sight.
func (in *Interner) Intern(tok string) int32 {
	if id, ok := in.ids[tok]; ok {
		return id
	}
	id := int32(len(in.toks))
	in.ids[tok] = id
	in.toks = append(in.toks, tok)
	in.hashes = append(in.hashes, tokenContentHash(tok))
	return id
}

// tokenContentHash is FNV-64a over the token bytes: a stable function of the
// token's content alone, independent of interning order.
func tokenContentHash(tok string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= prime64
	}
	return h
}

// TokenHash returns a 64-bit content hash of the token behind id. Two
// interners that assigned different ids to the same token string return the
// same hash, which is what lets LSH sketches built on an incrementally
// extended dictionary match those of a dictionary built from scratch.
func (in *Interner) TokenHash(id int32) uint64 { return in.hashes[id] }

// TokenHashes returns the content hashes of all interned tokens, indexed by
// id. The slice is the interner's own backing array — treat it read-only.
func (in *Interner) TokenHashes() []uint64 { return in.hashes }

// Lookup returns the id of tok without assigning one.
func (in *Interner) Lookup(tok string) (int32, bool) {
	id, ok := in.ids[tok]
	return id, ok
}

// Token returns the token string of id.
func (in *Interner) Token(id int32) string { return in.toks[id] }

// Len returns the number of distinct tokens interned.
func (in *Interner) Len() int { return len(in.toks) }

// internAll tokenizes s (Tokenize rules) and returns the ids of its tokens
// in token order, interning new ones, in the interner's scratch (valid
// until the next call). A token already interned is looked up straight
// from the scanner's buffer: only a new token allocates its string.
func (in *Interner) internAll(s string) []int32 {
	ids := in.scr[:0]
	sc := tokenScanner{s: s, buf: in.buf}
	for tok, ok := sc.next(); ok; tok, ok = sc.next() {
		id, seen := in.ids[string(tok)]
		if !seen {
			id = in.Intern(string(tok))
		}
		ids = append(ids, id)
	}
	in.buf, in.scr = sc.buf, ids
	return ids
}

// InternTokens tokenizes s (Tokenize rules) and returns the sorted distinct
// token ids — the interned form of TokenSet, ready for JaccardIDs.
func (in *Interner) InternTokens(s string) []int32 {
	ids := in.internAll(s)
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	return slices.Clone(slices.Compact(ids))
}

// TFVec is the interned term-frequency vector of one string: parallel
// sorted ids and counts, with the Euclidean norm precomputed so a cosine
// between two vectors is one linear merge and one division.
type TFVec struct {
	IDs    []int32
	Counts []int32
	Norm   float64
}

// InternTermFreq builds the term-frequency vector of s — the interned form
// of the map termFreq builds for Cosine.
func (in *Interner) InternTermFreq(s string) TFVec {
	ids := in.internAll(s)
	if len(ids) == 0 {
		return TFVec{}
	}
	slices.Sort(ids)
	distinct := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			distinct++
		}
	}
	v := TFVec{IDs: make([]int32, 0, distinct), Counts: make([]int32, 0, distinct)}
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			v.Counts[len(v.Counts)-1]++
			continue
		}
		v.IDs = append(v.IDs, id)
		v.Counts = append(v.Counts, 1)
	}
	var sq float64
	for _, c := range v.Counts {
		sq += float64(c) * float64(c)
	}
	v.Norm = math.Sqrt(sq)
	return v
}

// IntersectCount returns |a ∩ b| of two sorted distinct id slices by linear
// merge, allocation-free.
func IntersectCount(a, b []int32) int {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// IntersectAtLeast reports whether |a ∩ b| >= k for two sorted distinct id
// slices — IntersectCount(a, b) >= k, by the same linear merge, returning
// as soon as k shared ids are found or the rest of either slice is too
// short to reach k. k <= 0 is always true.
func IntersectAtLeast(a, b []int32, k int) bool {
	if k <= 0 {
		return true
	}
	i, j := 0, 0
	for len(a)-i >= k && len(b)-j >= k {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if k--; k == 0 {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// JaccardIDs computes the Jaccard coefficient of two sorted distinct id
// slices — the interned form of JaccardSets, bit-identical on the same
// token sets.
func JaccardIDs(a, b []int32) float64 {
	return JaccardFromCount(IntersectCount(a, b), len(a), len(b))
}

// JaccardFromCount is the Jaccard coefficient of two sets of sizes la and
// lb sharing inter elements: 1 for two empty sets, 0 when one is empty,
// otherwise inter/(la+lb-inter). It is JaccardIDs' formula, for callers
// that already hold the intersection count.
func JaccardFromCount(inter, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / float64(la+lb-inter)
}

// CosineTF computes the cosine similarity of two term-frequency vectors —
// the interned form of Cosine. The dot product and squared norms are sums
// of products of term counts, all exactly representable integers, so the
// result is bit-identical to the map-based accumulation regardless of
// iteration order.
func CosineTF(a, b TFVec) float64 {
	if len(a.IDs) == 0 && len(b.IDs) == 0 {
		return 1
	}
	if len(a.IDs) == 0 || len(b.IDs) == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			dot += float64(a.Counts[i]) * float64(b.Counts[j])
			i++
			j++
		}
	}
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	return dot / (a.Norm * b.Norm)
}

// LevenshteinRunes computes the edit distance of two rune slices reusing
// the caller's row buffers (grown as needed, returned for reuse). It is the
// zero-allocation form of Levenshtein once the buffers are warm.
func LevenshteinRunes(ra, rb []rune, prev, cur []int) (d int, prevOut, curOut []int) {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb, prev, cur
	}
	if lb == 0 {
		return la, prev, cur
	}
	if cap(prev) < lb+1 {
		prev = make([]int, lb+1)
	}
	if cap(cur) < lb+1 {
		cur = make([]int, lb+1)
	}
	prev, cur = prev[:lb+1], cur[:lb+1]
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
	return prev[lb], prev, cur
}

// LevenshteinSimRunes normalizes LevenshteinRunes into a similarity in
// [0,1], formula-identical to LevenshteinSim.
func LevenshteinSimRunes(ra, rb []rune, prev, cur []int) (sim float64, prevOut, curOut []int) {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1, prev, cur
	}
	d, prev, cur := LevenshteinRunes(ra, rb, prev, cur)
	longest := max(la, lb)
	return 1 - float64(d)/float64(longest), prev, cur
}

// JaroScratch holds the matched-flag buffers of JaroRunes, reused across
// calls.
type JaroScratch struct {
	ma, mb []bool
}

// JaroRunes computes the Jaro similarity of two rune slices using the
// scratch's matched-flag buffers — the zero-allocation form of Jaro.
func JaroRunes(ra, rb []rune, sc *JaroScratch) float64 {
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
	if cap(sc.ma) < la {
		sc.ma = make([]bool, la)
	}
	if cap(sc.mb) < lb {
		sc.mb = make([]bool, lb)
	}
	matchedA, matchedB := sc.ma[:la], sc.mb[:lb]
	for i := range matchedA {
		matchedA[i] = false
	}
	for j := range matchedB {
		matchedB[j] = false
	}
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

// JaroWinklerRunes computes the Jaro-Winkler similarity of two rune slices,
// formula-identical to JaroWinkler.
func JaroWinklerRunes(ra, rb []rune, sc *JaroScratch) float64 {
	j := JaroRunes(ra, rb, sc)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}
