package crowd

import (
	"fmt"
	"math/rand"
)

// Pool simulates a crowd workforce of n workers with heterogeneous error
// rates. Every vote is derived from (seed, pair id, round) alone — no
// shared random stream — so the vote a pair receives on its r-th round is
// bit-identical no matter how label requests are batched, split, ordered or
// interleaved. Worker error rates are drawn once from the seed, spread
// uniformly over [errLo, errHi].
type Pool struct {
	seed     int64
	err      []float64
	assigned int64 // total votes handed out (accounting only)
}

// NewPool builds a simulated workforce. Error rates must satisfy
// 0 <= errLo <= errHi < 0.5: a worker wrong more often than right carries
// no signal majority voting can use.
func NewPool(workers int, seed int64, errLo, errHi float64) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("%w: pool of %d workers", ErrBadConfig, workers)
	}
	if errLo < 0 || errHi < errLo || errHi >= 0.5 {
		return nil, fmt.Errorf("%w: worker error range [%v, %v] must satisfy 0 <= lo <= hi < 0.5", ErrBadConfig, errLo, errHi)
	}
	p := &Pool{seed: seed, err: make([]float64, workers)}
	rng := rand.New(rand.NewSource(mix64(seed, -1, -1)))
	for i := range p.err {
		p.err[i] = errLo + rng.Float64()*(errHi-errLo)
	}
	return p, nil
}

// Workers returns the workforce size.
func (p *Pool) Workers() int { return len(p.err) }

// Vote is one worker's answer on one pair.
type Vote struct {
	Worker int
	Match  bool
}

// Votes returns the pair's votes for rounds [from, from+count): round r is
// cast by the r-th worker of a per-pair seeded assignment (all workers
// distinct within each cycle of len(pool) rounds), who reports the truth
// flipped with their own error rate. Deterministic per (seed, id, round).
func (p *Pool) Votes(id int, truth bool, from, count int) []Vote {
	if count <= 0 {
		return nil
	}
	out := make([]Vote, 0, count)
	n := len(p.err)
	var perm []int
	permCycle := -1
	for r := from; r < from+count; r++ {
		// The assignment permutation depends on (seed, id, cycle) only, so
		// any round can be recomputed in isolation.
		if cycle := r / n; perm == nil || cycle != permCycle {
			// Negative third words keep the permutation seeds disjoint from
			// the per-round flip seeds (rounds are >= 0).
			rng := rand.New(rand.NewSource(mix64(p.seed, int64(id), -2-int64(cycle))))
			perm = rng.Perm(n)
			permCycle = cycle
		}
		w := perm[r%n]
		ans := truth
		rng := rand.New(rand.NewSource(mix64(p.seed, int64(id), int64(r))))
		if rng.Float64() < p.err[w] {
			ans = !ans
		}
		out = append(out, Vote{Worker: w, Match: ans})
	}
	p.assigned += int64(count)
	return out
}

// mix64 hashes the components into a well-dispersed rand seed
// (splitmix64-style finalizer over the combined words).
func mix64(seed, id, round int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id)*0xbf58476d1ce4e5b9 ^ uint64(round)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
