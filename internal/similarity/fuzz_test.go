package similarity

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// randomIDSet draws a sorted distinct id set of at most n ids from [0, span).
func randomIDSet(rng *rand.Rand, n, span int) []int32 {
	var out []int32
	for i := 0; i < n; i++ {
		out = append(out, int32(rng.Intn(span)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FuzzIntersectAtLeast holds the early-exit floor check to the full count:
// IntersectAtLeast(a, b, k) == (IntersectCount(a, b) >= k) on random sorted
// distinct sets, empty sides included, for every k from -1 to past both
// lengths and for the fuzzed k itself.
func FuzzIntersectAtLeast(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4), 0)
	f.Add(int64(2), uint8(0), uint8(9), uint8(4), 1)
	f.Add(int64(3), uint8(12), uint8(12), uint8(16), 1)
	f.Add(int64(4), uint8(30), uint8(5), uint8(40), -3)
	f.Add(int64(5), uint8(8), uint8(8), uint8(8), 9)
	f.Add(int64(6), uint8(50), uint8(60), uint8(200), 2)
	f.Fuzz(func(t *testing.T, seed int64, na, nb, span uint8, k int) {
		rng := rand.New(rand.NewSource(seed))
		sp := int(span) + 1
		a := randomIDSet(rng, int(na), sp)
		b := randomIDSet(rng, int(nb), sp)
		n := IntersectCount(a, b)
		check := func(k int) {
			if got, want := IntersectAtLeast(a, b, k), n >= k; got != want {
				t.Fatalf("IntersectAtLeast(%v, %v, %d) = %v, IntersectCount = %d", a, b, k, got, n)
			}
		}
		check(k)
		for kk := -1; kk <= max(len(a), len(b))+1; kk++ {
			check(kk)
		}
	})
}

// refTokenize is Tokenize's rule spelled out rune by rune, independent of
// the byte scanner: lower-cased maximal runs of letters and digits, every
// other rune (an invalid UTF-8 byte included) a separator.
func refTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
			continue
		}
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	if b.Len() > 0 {
		tokens = append(tokens, b.String())
	}
	return tokens
}

// FuzzInternMatchesTokenize holds the allocation-free interning scanner to
// the tokenizing rule: for any string, Tokenize equals refTokenize; the ids
// of InternTokens, mapped back through Token, are the sorted TokenSet; and
// InternTermFreq is termFreq, ids ascending with the norm of its counts.
// Each string is interned twice into one dictionary, so both the
// first-sight path and the lookup path are checked, and must agree.
func FuzzInternMatchesTokenize(f *testing.F) {
	f.Add("")
	f.Add("Hello, WORLD! hello SVM2018")
	f.Add("ÉCOLE élève İstanbul STRASSE Straße ß ΣΙΣΥΦΟΣ")
	f.Add("٣٤٥ abc٣ ١٢x Ⅻ")
	f.Add("ab\xffcd \xc3 \xe2\x82 ok\xc3\xa9")
	f.Add(strings.Repeat("Ab", 150) + " " + strings.Repeat("ÉÉ", 80))
	f.Fuzz(func(t *testing.T, s string) {
		want := refTokenize(s)
		if got := Tokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
		set := slices.Sorted(maps.Keys(TokenSet(s)))
		wantTF := termFreq(s)
		in := NewInterner()
		var first []int32
		for pass := 0; pass < 2; pass++ {
			ids := in.InternTokens(s)
			if pass == 0 {
				first = ids
			} else if !slices.Equal(ids, first) {
				t.Fatalf("%q: ids %v on first sight, %v on lookup", s, first, ids)
			}
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				t.Fatalf("%q: InternTokens ids %v not sorted distinct", s, ids)
			}
			toks := make([]string, len(ids))
			for i, id := range ids {
				toks[i] = in.Token(id)
			}
			slices.Sort(toks)
			if !slices.Equal(toks, set) {
				t.Fatalf("%q: InternTokens tokens %q, want TokenSet %q", s, toks, set)
			}

			v := in.InternTermFreq(s)
			if len(v.IDs) != len(wantTF) || len(v.Counts) != len(v.IDs) {
				t.Fatalf("%q: InternTermFreq has %d ids, %d counts, want %d terms", s, len(v.IDs), len(v.Counts), len(wantTF))
			}
			var sq float64
			for i, id := range v.IDs {
				if i > 0 && id <= v.IDs[i-1] {
					t.Fatalf("%q: InternTermFreq ids %v not ascending", s, v.IDs)
				}
				if c := wantTF[in.Token(id)]; int(v.Counts[i]) != c {
					t.Fatalf("%q: count of %q = %d, want %d", s, in.Token(id), v.Counts[i], c)
				}
				sq += float64(v.Counts[i]) * float64(v.Counts[i])
			}
			if v.Norm != math.Sqrt(sq) {
				t.Fatalf("%q: norm %v, want %v", s, v.Norm, math.Sqrt(sq))
			}
		}
	})
}
