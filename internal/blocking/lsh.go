package blocking

import (
	"context"
	"slices"

	"humo/internal/parallel"
	"humo/internal/similarity"
)

// MinHash/LSH candidate generation. Every record's token set (over the
// blocking attribute, interned at NewScorer time) is summarized by Bands
// bottom-Rows MinHash sketches from a splitmix64-seeded hash family: band b
// hashes every token once with the band's own function and keeps the Rows
// smallest values — the record's bottom-r sketch — folded into one 32-bit
// bucket key. Two records collide in a band exactly when their r smallest
// token hashes coincide, which requires the r tokens themselves to be
// shared; a pair of Jaccard similarity s = I/U therefore collides with
// probability C(I,r)/C(U,r) ~= s^r per band, and 1-(1-s^r)^b overall — the
// same sharp S-curve as classic r-row banding, with two structural bonuses.
// Pairs sharing fewer than Rows tokens can never collide at all, so the
// enormous population of near-duplicate-free pairs that share one
// ubiquitous hot token costs nothing (classic r-row signatures flood the
// buckets with exactly those pairs on skewed data, and scoring or even
// counting them swamps the join). And each band needs one hash per token
// rather than Rows, so signature construction is Rows times cheaper.
//
// Colliding pairs are verified: a token-list intersection against the
// MinShared floor first — one linear merge of two short sorted id lists
// that stops as soon as the floor is reached or out of reach, and also
// drops spurious hash collisions — then the ordinary ScoreWith threshold.
//
// Token hashing is content-based: each band's hash mixes the interner's
// per-token content hash (a function of the token string only) with the
// band seed, never the token id. Interning order therefore cannot leak into
// sketches, which is what makes the incremental path (Incremental, whose
// extended dictionary assigns ids in arrival order) produce candidates
// bit-identical to a from-scratch build over the final tables.
//
// Everything is flat arrays: band keys are contiguous uint32 slices, each
// band joins two radix-sorted (key<<32|record) packed uint64 slices by
// linear merge with the intersection floor applied inline, and only
// floor-passing pairs — a small set — are materialized and scored. A pair
// colliding in several bands is verified and emitted in the lowest of them
// only: band b skips a pair whose two key rows already agree in a band
// before b, read straight from the key matrix, so the bands together emit
// each candidate once with no per-pair state. No per-record maps anywhere
// on the hot path.

// maxLSHHashes caps Rows*Bands: 4096 minhashes per record is far past any
// useful operating point and bounds the signature memory a request can
// demand.
const maxLSHHashes = 4096

// lshSeedBase seeds the hash family. Fixed, so signatures — and therefore
// candidates — are deterministic across runs and machines.
const lshSeedBase = 0x68756d6f6c736800 // "humolsh\0"

// splitmix64 is the SplitMix64 finalizer: a cheap, high-quality 64-bit
// mixer (Steele et al., "Fast splittable pseudorandom number generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lshSeeds derives the fixed per-band hash seeds.
func lshSeeds(bands int) []uint64 {
	seeds := make([]uint64, bands)
	for k := range seeds {
		seeds[k] = splitmix64(lshSeedBase + uint64(k))
	}
	return seeds
}

// lshBandKeys returns the flat n×bands band-key matrix of one table's token
// lists: keys[i*bands+b] is record i's bucket key in band b — the record's
// bottom-rows sketch under the band's hash function, folded to the top 32
// bits of a final mix (32-bit keys keep the matrix at 4 bytes per record
// per band; the rare cross-key collision is harmless because every
// colliding pair is verified against the real token lists). Per-token
// hashing starts from the interner's content hash (hashes[t], a pure
// function of the token string), not the token id: ids depend on interning
// order, which differs between a dictionary built from scratch and one
// extended incrementally, while content hashes — and therefore sketches,
// bucket keys and candidates — are identical either way. Records with
// fewer than rows tokens have no bottom-rows sketch; they never become
// candidates — the size analogue of ModeToken's MinShared filter — and the
// caller skips them the same way. The build shards over contiguous record
// ranges; each key depends only on the record's tokens, so the matrix is
// identical at any worker count.
func lshBandKeys(ctx context.Context, workers int, toks [][]int32, hashes []uint64, seeds []uint64, rows, bands int) ([]uint32, error) {
	keys := make([]uint32, len(toks)*bands)
	ranges := chunkRanges(len(toks), parallel.Workers(workers)*4)
	err := parallel.ForEach(workers, len(ranges), func(c int) error {
		bot := make([]uint64, rows)
		for i := ranges[c][0]; i < ranges[c][1]; i++ {
			if (i-ranges[c][0])%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if len(toks[i]) < rows {
				continue
			}
			for b := 0; b < bands; b++ {
				seed := seeds[b]
				for k := range bot {
					bot[k] = ^uint64(0)
				}
				for _, t := range toks[i] {
					v := splitmix64(hashes[t] ^ seed)
					if v >= bot[rows-1] {
						continue
					}
					// Insert into the sorted bottom-rows buffer (rows is
					// tiny, so a shift beats any cleverness).
					k := rows - 1
					for k > 0 && v < bot[k-1] {
						bot[k] = bot[k-1]
						k--
					}
					bot[k] = v
				}
				key := splitmix64(uint64(b))
				for _, v := range bot {
					key = splitmix64(key ^ v)
				}
				keys[i*bands+b] = uint32(key >> 32)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// lshBandEntries packs one band's (key, record) entries of a table into
// sorted uint64s — key in the top 32 bits, record id below — ready for the
// linear merge join. Records are appended in ascending order, so sorting
// by the key half alone yields the fully sorted order. Records too short
// to have a sketch are excluded. base offsets the packed record ids, so
// the incremental path can build entries for an appended suffix of a table
// (toks and keys covering only the new records) that slot straight into
// the full table's id space.
func lshBandEntries(toks [][]int32, keys []uint32, rows, bands, band, base, capacity int) []uint64 {
	out := make([]uint64, 0, capacity)
	for i := range toks {
		if len(toks[i]) < rows {
			continue
		}
		out = append(out, uint64(keys[i*bands+band])<<32|uint64(uint32(base+i)))
	}
	sortPacked(out, true)
	return out
}

// lowestBand lets lshJoin emit a colliding pair only in the lowest band
// where it collides: in band `band` it skips a pair whose two key rows
// already agree in an earlier band. keysA and keysB are flat key matrices
// (lshBandKeys) whose row r belongs to record baseA+r and baseB+r. The test
// reads only the pair's own keys, so bands stay independent, and together
// they emit exactly the distinct colliding pairs.
type lowestBand struct {
	keysA, keysB []uint32
	baseA, baseB int
	bands, band  int
}

// collidedBefore reports whether records i of A and j of B have equal
// keys in a band before d.band.
func (d *lowestBand) collidedBefore(i, j int32) bool {
	ra := d.keysA[(int(i)-d.baseA)*d.bands:][:d.band]
	rb := d.keysB[(int(j)-d.baseB)*d.bands:][:d.band]
	for t, k := range ra {
		if k == rb[t] {
			return true
		}
	}
	return false
}

// lshJoin merge-joins two sorted packed (key<<32|record) entry lists,
// appending every colliding cross pair that passes the shared-token floor to
// dst as a packed (A<<32)|B candidate. tokA and tokB are the full tables'
// token lists — entries carry absolute record ids. A non-nil first skips
// the pairs that collide in an earlier band; with nil, a pair is emitted in
// every band it collides in and the caller dedupes.
func lshJoin(dst []uint64, ea, eb []uint64, tokA, tokB [][]int32, floor int, first *lowestBand) []uint64 {
	x, y := 0, 0
	for x < len(ea) && y < len(eb) {
		ka, kb := ea[x]>>32, eb[y]>>32
		switch {
		case ka < kb:
			x++
		case ka > kb:
			y++
		default:
			x2 := x
			for x2 < len(ea) && ea[x2]>>32 == ka {
				x2++
			}
			y2 := y
			for y2 < len(eb) && eb[y2]>>32 == ka {
				y2++
			}
			for ; x < x2; x++ {
				i := int32(uint32(ea[x]))
				ta := tokA[i]
				for yy := y; yy < y2; yy++ {
					j := int32(uint32(eb[yy]))
					if first != nil && first.collidedBefore(i, j) {
						continue
					}
					if similarity.IntersectAtLeast(ta, tokB[j], floor) {
						dst = append(dst, uint64(uint32(i))<<32|uint64(uint32(j)))
					}
				}
			}
			y = y2
		}
	}
	return dst
}

func generateLSH(ctx context.Context, s *Scorer, opt Options) ([]Pair, error) {
	cands, err := lshCandidates(ctx, s, opt)
	if err != nil {
		return nil, err
	}
	// The packed sort order is exactly (A, B), so the output comes back
	// sorted like every other mode.
	return scorePacked(ctx, s, opt, cands)
}

// lshCandidates returns the distinct floor-passing colliding pairs of the
// scorer's tables as packed (A<<32)|B keys, band by band, unsorted.
func lshCandidates(ctx context.Context, s *Scorer, opt Options) ([]uint64, error) {
	rows, bands := opt.Rows, opt.Bands
	tokA, tokB, err := s.blockTokens(opt.Attribute)
	if err != nil {
		return nil, err
	}
	seeds := lshSeeds(bands)
	hashes := s.dict.TokenHashes()
	keysA, err := lshBandKeys(ctx, opt.Workers, tokA, hashes, seeds, rows, bands)
	if err != nil {
		return nil, err
	}
	keysB, err := lshBandKeys(ctx, opt.Workers, tokB, hashes, seeds, rows, bands)
	if err != nil {
		return nil, err
	}
	sketched := func(toks [][]int32) int {
		n := 0
		for i := range toks {
			if len(toks[i]) >= rows {
				n++
			}
		}
		return n
	}
	capA, capB := sketched(tokA), sketched(tokB)
	floor := lshFloor(opt)

	// Per-band bucket join, bands in parallel: sort both tables' packed
	// (key, record) entries, linear-merge equal-key runs, and verify each
	// colliding pair right there — first that it collides in no earlier
	// band (one compare per earlier band on two rows of the key matrix, so
	// each pair is verified in its lowest colliding band only), then the
	// intersection floor, which kills the one-shared-token flood at the
	// cost of a short merge. Only floor-passing pairs are kept, as packed
	// (A<<32)|B candidates.
	perBand, err := parallel.Map(opt.Workers, bands, func(b int) ([]uint64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ea := lshBandEntries(tokA, keysA, rows, bands, b, 0, capA)
		eb := lshBandEntries(tokB, keysB, rows, bands, b, 0, capB)
		first := &lowestBand{keysA: keysA, keysB: keysB, bands: bands, band: b}
		return lshJoin(nil, ea, eb, tokA, tokB, floor, first), nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perBand...), nil
}

// lshFloor is the shared-token count a colliding pair must reach to be
// scored. Colliding pairs share their bottom-rows tokens by construction;
// the floor makes that structural guarantee exact (it also holds across
// 32-bit key accidents) and layers the caller's MinShared on top.
func lshFloor(opt Options) int {
	return max(opt.MinShared, opt.Rows)
}
