package datagen

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"humo/internal/blocking"
	"humo/internal/records"
)

// ABConfig parameterizes the simulated Abt-Buy dataset. The real AB workload
// (paper §VIII-A) matches 1,081 Abt.com products against 1,092 Buy.com
// products; after blocking at aggregated similarity 0.05 it holds 313,040
// pairs of which only 1,085 match, and matching pairs spread into medium and
// low similarities (Fig. 4b) — the challenging workload. The simulation
// keeps that shape with heavily paraphrased product descriptions and
// frequently missing model codes.
type ABConfig struct {
	// Entities is the number of products listed on both sides (the
	// matching pairs).
	Entities int
	// ExtraA and ExtraB are unmatched products present on a single side.
	ExtraA, ExtraB int
	// HardFrac is the fraction of matched products whose second listing is
	// corrupted aggressively (landing at low similarity).
	HardFrac float64
	// SiblingFrac is the fraction of products that spawn a *sibling* on the
	// other side: same brand and category, different model — a different
	// product that scores at medium similarity (the hard non-matches).
	SiblingFrac float64
	// Threshold is the blocking threshold on aggregated similarity.
	Threshold float64
	// Seed drives deterministic generation.
	Seed int64
}

// DefaultABConfig mirrors the real dataset's scale.
func DefaultABConfig() ABConfig {
	return ABConfig{
		Entities:    1050,
		ExtraA:      31,
		ExtraB:      42,
		HardFrac:    0.55,
		SiblingFrac: 0.3,
		Threshold:   0.05,
		Seed:        20181009,
	}
}

func (c ABConfig) validate() error {
	if c.Entities <= 0 || c.ExtraA < 0 || c.ExtraB < 0 {
		return fmt.Errorf("%w: ABConfig %+v", ErrBadConfig, c)
	}
	if c.HardFrac < 0 || c.HardFrac > 1 {
		return fmt.Errorf("%w: HardFrac=%v", ErrBadConfig, c.HardFrac)
	}
	if c.SiblingFrac < 0 || c.SiblingFrac > 1 {
		return fmt.Errorf("%w: SiblingFrac=%v", ErrBadConfig, c.SiblingFrac)
	}
	if c.Threshold < 0 || c.Threshold >= 1 {
		return fmt.Errorf("%w: Threshold=%v", ErrBadConfig, c.Threshold)
	}
	return nil
}

// product is the clean form of one product entity.
type product struct {
	entity   int
	category int
	brand    string
	model    string
	nameTail []string // descriptive words in the name besides brand/model
	desc     []string
}

func genProduct(rng *rand.Rand, entity int) product {
	cat := rng.Intn(len(productCategories))
	c := productCategories[cat]
	model := fmt.Sprintf("%c%c%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), 1000+rng.Intn(9000))
	nameTail := []string{pick(rng, c.nouns)}
	nameTail = append(nameTail, sampleDistinct(rng, c.words, 1+rng.Intn(2))...)
	nDesc := 8 + rng.Intn(10)
	if nDesc > len(c.words) {
		nDesc = len(c.words)
	}
	desc := sampleDistinct(rng, c.words, nDesc)
	desc = append(desc, sampleDistinct(rng, productAdjectives, 2+rng.Intn(3))...)
	return product{
		entity:   entity,
		category: cat,
		brand:    pick(rng, productBrands),
		model:    model,
		nameTail: nameTail,
		desc:     desc,
	}
}

func (p product) nameStr(includeModel bool) string {
	parts := []string{p.brand}
	if includeModel {
		parts = append(parts, p.model)
	}
	parts = append(parts, p.nameTail...)
	return strings.Join(parts, " ")
}

func (p product) descStr() string { return joinWords(p.desc) }

// buyListing derives the second marketplace's listing of the same product.
// Easy listings keep the model code and most description words; hard ones
// lose the model, heavily paraphrase the description and abbreviate, which
// drags their pair similarity down to the low band of Fig. 4b.
func buyListing(c *corruptor, p product, hard bool) (name, desc string) {
	catWords := productCategories[p.category].words
	if hard {
		nameWords := c.dropWords(p.nameTail, 0.45)
		nameWords = c.replaceWords(nameWords, catWords, 0.3)
		name = p.brand + " " + joinWords(nameWords)
		if c.rng.Float64() < 0.25 {
			name = joinWords(nameWords) // even the brand is missing
		}
		words := c.dropWords(p.desc, 0.55)
		words = c.replaceWords(words, catWords, 0.45)
		words = c.abbrevWords(words, 0.15)
		desc = joinWords(words)
		return name, desc
	}
	includeModel := c.rng.Float64() < 0.6
	nameWords := c.dropWords(p.nameTail, 0.2)
	name = p.brand + " "
	if includeModel {
		name += p.model + " "
	}
	name += joinWords(nameWords)
	words := c.dropWords(p.desc, 0.3)
	words = c.replaceWords(words, catWords, 0.15)
	words = c.swapWords(words, 0.5)
	desc = joinWords(words)
	return name, desc
}

// sibling derives a different product of the same brand and category: a new
// model code and partially re-drawn name/description words. Sibling pairs
// are the hard non-matches of product matching.
func sibling(rng *rand.Rand, p product, entity int) product {
	c := productCategories[p.category]
	model := fmt.Sprintf("%c%c%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), 1000+rng.Intn(9000))
	nameTail := append([]string(nil), p.nameTail...)
	if len(nameTail) > 1 {
		nameTail[len(nameTail)-1] = pick(rng, c.words)
	}
	keep := len(p.desc) / 2
	desc := append([]string(nil), sampleDistinct(rng, p.desc, keep)...)
	desc = append(desc, sampleDistinct(rng, c.words, 4)...)
	desc = append(desc, sampleDistinct(rng, productAdjectives, 2)...)
	return product{
		entity:   entity,
		category: p.category,
		brand:    p.brand,
		model:    model,
		nameTail: nameTail,
		desc:     desc,
	}
}

var abAttributes = []string{"name", "description"}

// ABLike generates the simulated Abt-Buy workload: cross-product candidate
// generation over the two product tables with aggregated Jaccard(name) and
// Jaccard(description) similarity, distinct-value weights and the paper's
// 0.05 blocking threshold.
func ABLike(cfg ABConfig) (*ERDataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &corruptor{rng: rng}

	abt := &records.Table{Name: "abt", Attributes: abAttributes}
	buy := &records.Table{Name: "buy", Attributes: abAttributes}

	products := make([]product, cfg.Entities)
	for i := 0; i < cfg.Entities; i++ {
		products[i] = genProduct(rng, i)
		p := products[i]
		abt.Records = append(abt.Records, records.Record{
			ID:       i,
			EntityID: i,
			Values:   []string{p.nameStr(true), p.descStr()},
		})
		name, desc := buyListing(c, p, rng.Float64() < cfg.HardFrac)
		buy.Records = append(buy.Records, records.Record{
			ID:       i,
			EntityID: i,
			Values:   []string{name, desc},
		})
	}
	// Siblings: same brand/category as an existing product but a different
	// entity, listed on Buy only. They score at medium similarity against
	// their originals.
	nextEntity := 10 * (cfg.Entities + cfg.ExtraA + cfg.ExtraB)
	nextBuyID := cfg.Entities
	for _, p := range products {
		if rng.Float64() >= cfg.SiblingFrac {
			continue
		}
		sib := sibling(rng, p, nextEntity)
		nextEntity++
		name, desc := buyListing(c, sib, rng.Float64() < cfg.HardFrac)
		buy.Records = append(buy.Records, records.Record{
			ID:       nextBuyID,
			EntityID: sib.entity,
			Values:   []string{name, desc},
		})
		nextBuyID++
	}
	for i := 0; i < cfg.ExtraA; i++ {
		p := genProduct(rng, nextEntity)
		nextEntity++
		abt.Records = append(abt.Records, records.Record{
			ID:       cfg.Entities + i,
			EntityID: p.entity,
			Values:   []string{p.nameStr(true), p.descStr()},
		})
	}
	for i := 0; i < cfg.ExtraB; i++ {
		p := genProduct(rng, nextEntity)
		nextEntity++
		name, desc := buyListing(c, p, rng.Float64() < cfg.HardFrac)
		buy.Records = append(buy.Records, records.Record{
			ID:       nextBuyID,
			EntityID: p.entity,
			Values:   []string{name, desc},
		})
		nextBuyID++
	}

	specs, err := blocking.DistinctValueSpecs(abt, buy, []blocking.AttributeSpec{
		{Attribute: "name", Kind: blocking.KindJaccard},
		{Attribute: "description", Kind: blocking.KindJaccard},
	})
	if err != nil {
		return nil, err
	}
	scorer, err := blocking.NewScorer(abt, buy, specs)
	if err != nil {
		return nil, err
	}
	cands, err := blocking.Generate(context.Background(), scorer, blocking.Options{Mode: blocking.ModeCross, Threshold: cfg.Threshold})
	if err != nil {
		return nil, err
	}
	return &ERDataset{
		Name:       "AB",
		A:          abt,
		B:          buy,
		Scorer:     scorer,
		Candidates: cands,
		Pairs:      labelCandidates(abt, buy, cands),
	}, nil
}
