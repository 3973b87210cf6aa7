package blocking

import (
	"context"

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
// Colliding pairs are verified and scored in one step: one linear merge of
// the two short sorted token-id lists counts the shared tokens, a pair
// below the MinShared floor is dropped (which also drops spurious hash
// collisions), and the rest are scored on the spot, every KindJaccard spec
// on the blocking attribute reading the same count, and kept at or above
// the threshold.
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
// linear merge with verification and scoring inline, and only the pairs
// that reach the threshold — a small set — are materialized. A pair
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

// lshJoin merge-joins two sorted packed (key<<32|record) entry lists and
// calls visit with every colliding cross pair, as absolute record ids. A
// non-nil first skips the pairs that collide in an earlier band; with nil,
// a pair is visited in every band it collides in. visit returning false
// stops the join.
func lshJoin(ea, eb []uint64, first *lowestBand, visit func(i, j int32) bool) {
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
				for yy := y; yy < y2; yy++ {
					j := int32(uint32(eb[yy]))
					if first != nil && first.collidedBefore(i, j) {
						continue
					}
					if !visit(i, j) {
						return
					}
				}
			}
			y = y2
		}
	}
}

// floorVisit returns an lshJoin visitor that appends every pair whose token
// lists share at least floor tokens to *dst as a packed (A<<32)|B key.
func floorVisit(dst *[]uint64, tokA, tokB [][]int32, floor int) func(i, j int32) bool {
	return func(i, j int32) bool {
		if similarity.IntersectAtLeast(tokA[i], tokB[j], floor) {
			*dst = append(*dst, uint64(uint32(i))<<32|uint64(uint32(j)))
		}
		return true
	}
}

// bandScorer verifies and scores the pairs of an LSH band join in one step:
// a pair's blocking token lists are counted once, a pair below the floor is
// dropped, and any other is scored right there — its KindJaccard specs on
// the blocking attribute from that same count (see Scorer.scoreCounted) —
// and kept when it reaches the threshold. Only the kept pairs are ever
// held.
type bandScorer struct {
	s          *Scorer
	tokA, tokB [][]int32
	counted    []bool
	floor      int
	threshold  float64
}

func newBandScorer(s *Scorer, opt Options, tokA, tokB [][]int32) *bandScorer {
	return &bandScorer{
		s: s, tokA: tokA, tokB: tokB, counted: s.countedSpecs(opt.Attribute),
		floor: lshFloor(opt), threshold: opt.Threshold,
	}
}

// join runs lshJoin over one band's entries and returns the kept pairs in
// join order, checking ctx every ctxStride visited pairs.
func (bs *bandScorer) join(ctx context.Context, ea, eb []uint64, first *lowestBand) ([]Pair, error) {
	sc := bs.s.NewScratch()
	var (
		out     []Pair
		err     error
		visited int
	)
	lshJoin(ea, eb, first, func(i, j int32) bool {
		if visited++; visited%ctxStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		ta, tb := bs.tokA[i], bs.tokB[j]
		inter := similarity.IntersectCount(ta, tb)
		if inter < bs.floor {
			return true
		}
		if sim := bs.s.scoreCounted(sc, int(i), int(j), bs.counted, inter, len(ta), len(tb)); sim >= bs.threshold {
			out = append(out, Pair{A: int(i), B: int(j), Sim: sim})
		}
		return true
	})
	return out, err
}

// lshFloor is the shared-token count a colliding pair must reach to be
// scored. Colliding pairs share their bottom-rows tokens by construction;
// the floor makes that structural guarantee exact (it also holds across
// 32-bit key accidents) and layers the caller's MinShared on top.
func lshFloor(opt Options) int {
	return max(opt.MinShared, opt.Rows)
}
