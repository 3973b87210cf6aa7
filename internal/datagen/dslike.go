package datagen

import (
	"context"
	"fmt"
	"math/rand"

	"humo/internal/blocking"
	"humo/internal/records"
)

// DSConfig parameterizes the simulated DBLP-Scholar dataset. The real DS
// workload (paper §VIII-A) matches 2,616 clean DBLP publications against
// 64,263 scraped Google Scholar entries; after blocking at aggregated
// similarity 0.2 it holds 100,077 pairs of which 5,267 match, with matching
// pairs concentrated at high similarities (Fig. 4a). The simulation keeps
// that shape: clean records on one side, lightly corrupted duplicates plus
// same-topic fillers on the other.
type DSConfig struct {
	// Entities is the number of clean DBLP publications.
	Entities int
	// DupFrac is the fraction of entities that have Scholar duplicates.
	DupFrac float64
	// MaxDups is the maximum noisy Scholar copies per duplicated entity.
	MaxDups int
	// Filler is the number of Scholar-only publications (non-matches).
	Filler int
	// RelatedFrac is the fraction of entities that also have a *related*
	// Scholar publication: same authors and venue, roughly half the title
	// words — a different real-world paper (e.g. the journal version of
	// different work by the same group). These are the workload's hard
	// non-matches, landing at medium similarity.
	RelatedFrac float64
	// Threshold is the blocking threshold on aggregated similarity.
	Threshold float64
	// MinShared is the token-blocking minimum shared title tokens.
	MinShared int
	// Seed drives deterministic generation.
	Seed int64
}

// DefaultDSConfig returns the configuration used by the experiment harness:
// scaled to roughly the real dataset's workload shape while staying
// laptop-friendly.
func DefaultDSConfig() DSConfig {
	return DSConfig{
		Entities:    2600,
		DupFrac:     0.85,
		MaxDups:     3,
		Filler:      42000,
		RelatedFrac: 0.3,
		Threshold:   0.2,
		MinShared:   2,
		Seed:        20180417,
	}
}

func (c DSConfig) validate() error {
	if c.Entities <= 0 || c.Filler < 0 || c.MaxDups < 1 {
		return fmt.Errorf("%w: DSConfig %+v", ErrBadConfig, c)
	}
	if c.DupFrac < 0 || c.DupFrac > 1 {
		return fmt.Errorf("%w: DupFrac=%v", ErrBadConfig, c.DupFrac)
	}
	if c.RelatedFrac < 0 || c.RelatedFrac > 1 {
		return fmt.Errorf("%w: RelatedFrac=%v", ErrBadConfig, c.RelatedFrac)
	}
	if c.Threshold < 0 || c.Threshold >= 1 {
		return fmt.Errorf("%w: Threshold=%v", ErrBadConfig, c.Threshold)
	}
	if c.MinShared < 1 {
		return fmt.Errorf("%w: MinShared=%d", ErrBadConfig, c.MinShared)
	}
	return nil
}

// publication is the clean form of one bibliographic entity.
type publication struct {
	entity  int
	topic   int
	title   []string
	authors []author
	venue   venue
}

type author struct{ first, last string }

func genPublication(rng *rand.Rand, entity int) publication {
	topic := rng.Intn(len(topicWords))
	nTopical := 3 + rng.Intn(3) // 3-5 topical words
	nGeneral := 2 + rng.Intn(3) // 2-4 general words
	title := make([]string, 0, nTopical+nGeneral)
	title = append(title, sampleDistinct(rng, topicWords[topic], nTopical)...)
	title = append(title, sampleDistinct(rng, generalTitleWords, nGeneral)...)
	nAuthors := 1 + rng.Intn(4)
	authors := make([]author, nAuthors)
	for i := range authors {
		authors[i] = author{first: pick(rng, firstNames), last: pick(rng, lastNames)}
	}
	return publication{
		entity:  entity,
		topic:   topic,
		title:   title,
		authors: authors,
		venue:   pick(rng, venues),
	}
}

func (p publication) titleStr() string { return joinWords(p.title) }

func (p publication) authorsStr(initials bool) string {
	var b []byte
	for i, a := range p.authors {
		if i > 0 {
			b = append(b, ' ')
		}
		first := a.first
		if initials {
			first = initialize(first)
		}
		b = append(b, first...)
		b = append(b, ' ')
		b = append(b, a.last...)
	}
	return string(b)
}

// scholarCopy derives a noisy Scholar record from a clean publication:
// light word drops and abbreviations, author initials, often an abbreviated
// venue and rare typos — enough to move matches off similarity 1.0 while
// keeping most of them high (the Fig. 4a shape).
func scholarCopy(c *corruptor, p publication) (title, authors, ven string) {
	words := c.dropWords(p.title, 0.16)
	words = c.abbrevWords(words, 0.1)
	words = c.swapWords(words, 0.3)
	title = c.typos(joinWords(words), 0.004)
	authors = p.authorsStr(c.rng.Float64() < 0.5)
	if c.rng.Float64() < 0.25 {
		// Scholar frequently truncates long author lists.
		cut := publication{authors: p.authors[:1+c.rng.Intn(len(p.authors))]}
		authors = cut.authorsStr(c.rng.Float64() < 0.5)
	}
	ven = p.venue.full
	if c.rng.Float64() < 0.5 {
		ven = p.venue.abbrev
	}
	return title, authors, ven
}

// relatedPublication derives a *different* paper by the same authors: it
// keeps the author list and venue, reuses about half the title words of the
// original and draws the rest fresh from the same topic. Such pairs are the
// hard non-matches of bibliographic matching.
func relatedPublication(rng *rand.Rand, p publication, entity int) publication {
	keep := len(p.title) / 2
	title := append([]string(nil), sampleDistinct(rng, p.title, keep)...)
	title = append(title, sampleDistinct(rng, topicWords[p.topic], 2)...)
	title = append(title, sampleDistinct(rng, generalTitleWords, 2)...)
	// Same research group, overlapping but not identical author list.
	nKeep := (len(p.authors) + 1) / 2
	authors := append([]author(nil), sampleDistinct(rng, p.authors, nKeep)...)
	authors = append(authors, author{first: pick(rng, firstNames), last: pick(rng, lastNames)})
	return publication{
		entity:  entity,
		topic:   p.topic,
		title:   title,
		authors: authors,
		venue:   p.venue,
	}
}

var dsAttributes = []string{"title", "authors", "venue"}

// DSLike generates the simulated DBLP-Scholar workload: a clean DBLP table,
// a Scholar table of noisy duplicates plus same-topic fillers, token
// blocking on the title and weighted aggregation of Jaccard(title),
// Jaccard(authors) and JaroWinkler(venue) with distinct-value weights —
// the paper's exact recipe (§VIII-A).
func DSLike(cfg DSConfig) (*ERDataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &corruptor{rng: rng}

	dblp := &records.Table{Name: "dblp", Attributes: dsAttributes}
	scholar := &records.Table{Name: "scholar", Attributes: dsAttributes}

	pubs := make([]publication, cfg.Entities)
	for i := range pubs {
		pubs[i] = genPublication(rng, i)
		dblp.Records = append(dblp.Records, records.Record{
			ID:       i,
			EntityID: i,
			Values:   []string{pubs[i].titleStr(), pubs[i].authorsStr(false), pubs[i].venue.full},
		})
	}
	next := 0
	addScholar := func(entity int, title, authors, ven string) {
		scholar.Records = append(scholar.Records, records.Record{
			ID:       next,
			EntityID: entity,
			Values:   []string{title, authors, ven},
		})
		next++
	}
	for _, p := range pubs {
		if rng.Float64() >= cfg.DupFrac {
			continue
		}
		copies := 1 + rng.Intn(cfg.MaxDups)
		for k := 0; k < copies; k++ {
			title, authors, ven := scholarCopy(c, p)
			addScholar(p.entity, title, authors, ven)
		}
	}
	// Related publications: same authors/venue, half-overlapping titles —
	// distinct entities that score at medium similarity.
	relEntity := cfg.Entities + cfg.Filler
	for _, p := range pubs {
		if rng.Float64() >= cfg.RelatedFrac {
			continue
		}
		rel := relatedPublication(rng, p, relEntity)
		relEntity++
		title, authors, ven := scholarCopy(c, rel)
		addScholar(rel.entity, title, authors, ven)
	}
	// Fillers: publications of distinct entities, drawn from the same topic
	// vocabulary so they collide with DBLP titles on tokens.
	for f := 0; f < cfg.Filler; f++ {
		p := genPublication(rng, cfg.Entities+f)
		title, authors, ven := scholarCopy(c, p)
		addScholar(p.entity, title, authors, ven)
	}

	specs, err := blocking.DistinctValueSpecs(dblp, scholar, []blocking.AttributeSpec{
		{Attribute: "title", Kind: blocking.KindJaccard},
		{Attribute: "authors", Kind: blocking.KindJaccard},
		{Attribute: "venue", Kind: blocking.KindJaroWinkler},
	})
	if err != nil {
		return nil, err
	}
	scorer, err := blocking.NewScorer(dblp, scholar, specs)
	if err != nil {
		return nil, err
	}
	cands, err := blocking.Generate(context.Background(), scorer, blocking.Options{
		Mode: blocking.ModeToken, Attribute: "title", MinShared: cfg.MinShared, Threshold: cfg.Threshold,
	})
	if err != nil {
		return nil, err
	}
	return &ERDataset{
		Name:       "DS",
		A:          dblp,
		B:          scholar,
		Scorer:     scorer,
		Candidates: cands,
		Pairs:      labelCandidates(dblp, scholar, cands),
	}, nil
}
