package stats

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// TTableMaxDF is the largest degrees of freedom a TTable memoises. Integral
// df in [1, TTableMaxDF] are table entries; any other df (non-integral, or
// beyond the cap) is computed by TwoSidedT on every call.
const TTableMaxDF = 1 << 17

const (
	// A table is allocated in chunks of tChunkSize entries (8 KiB), on the
	// first fill that lands in a chunk, so a search touching df up to ~50k
	// pays ~400 KiB, not the full 1 MiB.
	tChunkBits = 10
	tChunkSize = 1 << tChunkBits
	tChunks    = TTableMaxDF / tChunkSize

	// tRegistrySize is how many confidences the process-wide registry
	// shares at once; the least recently resolved one is evicted.
	tRegistrySize = 8
)

// TTable memoises the two-sided Student-t critical values TwoSidedT(theta,
// df) of one confidence theta for integral 1 <= df <= TTableMaxDF, plus
// TwoSidedZ(theta). Entries are filled lazily and hold exactly the bits
// TwoSidedT returns, so reading the table never changes a result, only the
// time it takes. At most 1 MiB of entries (plus a 1 KiB chunk index) is
// allocated per table, in 8 KiB chunks as df values are first asked for.
//
// A TTable is safe for concurrent use: reads of filled entries are atomic
// loads, and a miss computes the value and publishes it with an atomic
// store (racing fillers store identical bits).
type TTable struct {
	theta, z float64
	chunks   [tChunks]atomic.Pointer[[tChunkSize]atomic.Uint64]
}

var tRegistry struct {
	mu     sync.Mutex
	tables []*TTable // most recently resolved first
}

// TTableFor returns the process-wide table of confidence theta, creating it
// on first use. The registry keeps the tables of the last few confidences
// resolved; a caller should resolve once and hold the handle for as long as
// it computes at that confidence: an evicted table stays fully usable by its
// holders, it just stops being shared with later callers.
func TTableFor(theta float64) (*TTable, error) {
	if !(theta > 0 && theta < 1) {
		return nil, fmt.Errorf("%w: confidence theta=%v must be in (0,1)", ErrBadParam, theta)
	}
	r := &tRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, t := range r.tables {
		if t.theta == theta {
			copy(r.tables[1:i+1], r.tables[:i])
			r.tables[0] = t
			return t, nil
		}
	}
	t, err := newTTable(theta)
	if err != nil {
		return nil, err
	}
	if len(r.tables) < tRegistrySize {
		r.tables = append(r.tables, nil)
	}
	copy(r.tables[1:], r.tables)
	r.tables[0] = t
	return t, nil
}

// newTTable builds an empty, unregistered table.
func newTTable(theta float64) (*TTable, error) {
	z, err := TwoSidedZ(theta)
	if err != nil {
		return nil, err
	}
	return &TTable{theta: theta, z: z}, nil
}

// Theta returns the table's confidence.
func (t *TTable) Theta() float64 { return t.theta }

// Z returns TwoSidedZ(Theta()).
func (t *TTable) Z() float64 { return t.z }

// At returns TwoSidedT(Theta(), df), bit for bit: from the table for
// integral 1 <= df <= TTableMaxDF, computed directly otherwise.
func (t *TTable) At(df float64) (float64, error) {
	if !(df >= 1 && df <= TTableMaxDF && df == math.Trunc(df)) {
		return TwoSidedT(t.theta, df)
	}
	i := int(df) - 1
	if c := t.chunks[i>>tChunkBits].Load(); c != nil {
		if v := c[i&(tChunkSize-1)].Load(); v != 0 {
			return math.Float64frombits(v), nil
		}
	}
	return t.fill(i, df)
}

// fill computes entry i (df = i+1) and publishes it. A zero critical value
// (a theta so small that 0.5+theta/2 rounds to 0.5) reads as unfilled and
// is simply recomputed on every call.
func (t *TTable) fill(i int, df float64) (float64, error) {
	v, err := TwoSidedT(t.theta, df)
	if err != nil {
		return 0, err
	}
	slot := &t.chunks[i>>tChunkBits]
	c := slot.Load()
	if c == nil {
		fresh := new([tChunkSize]atomic.Uint64)
		if slot.CompareAndSwap(nil, fresh) {
			c = fresh
		} else {
			c = slot.Load()
		}
	}
	c[i&(tChunkSize-1)].Store(math.Float64bits(v))
	return v, nil
}

// CritValues is a caller-held set of TTable handles, one per confidence the
// caller has asked at, for estimators whose interval queries take the
// confidence as an argument. It resolves each confidence through TTableFor
// once and keeps the handle for its own lifetime, so registry evictions
// never make it recompute a critical value it has already seen. The zero
// value is ready to use. It is safe for concurrent use: a lookup is an
// atomic load and a scan of the held handles; only a confidence seen for
// the first time goes to the registry. Critical values of df beyond
// TTableMaxDF are memoised per holder, behind a mutex, so a search past the
// table's cap does not rerun the bisection on every query. A CritValues
// must not be copied after first use.
type CritValues struct {
	tabs atomic.Pointer[[]*TTable] // copy-on-write

	mu     sync.Mutex
	beyond map[[2]float64]float64 // (theta, df) with df > TTableMaxDF
}

// Table returns the held table of confidence theta, resolving it on first
// use.
func (c *CritValues) Table(theta float64) (*TTable, error) {
	for {
		old := c.tabs.Load()
		if old != nil {
			for _, t := range *old {
				if t.theta == theta {
					return t, nil
				}
			}
		}
		t, err := TTableFor(theta)
		if err != nil {
			return nil, err
		}
		var tabs []*TTable
		if old != nil {
			tabs = append(tabs, *old...)
		}
		tabs = append(tabs, t)
		if c.tabs.CompareAndSwap(old, &tabs) {
			return t, nil
		}
	}
}

// T returns TwoSidedT(theta, df), bit for bit.
func (c *CritValues) T(theta, df float64) (float64, error) {
	t, err := c.Table(theta)
	if err != nil {
		return 0, err
	}
	if !(df > TTableMaxDF) {
		return t.At(df)
	}
	k := [2]float64{theta, df}
	c.mu.Lock()
	v, ok := c.beyond[k]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	if v, err = TwoSidedT(theta, df); err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.beyond == nil {
		c.beyond = make(map[[2]float64]float64)
	}
	c.beyond[k] = v
	c.mu.Unlock()
	return v, nil
}

// Z returns TwoSidedZ(theta), bit for bit.
func (c *CritValues) Z(theta float64) (float64, error) {
	t, err := c.Table(theta)
	if err != nil {
		return 0, err
	}
	return t.z, nil
}
