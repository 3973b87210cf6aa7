// Package records models the relational records the simulated real datasets
// are built from (paper §VIII-A: bibliographic records for DBLP-Scholar,
// product records for Abt-Buy). A Record carries a hidden EntityID — the
// real-world entity it denotes — which generators set and the oracle uses
// for ground truth; resolution algorithms never read it.
package records

import (
	"errors"
	"fmt"
)

// ErrBadTable reports a structurally invalid table.
var ErrBadTable = errors.New("records: invalid table")

// Record is one relational record.
type Record struct {
	// ID is unique within its table.
	ID int
	// EntityID identifies the underlying real-world entity (ground truth).
	EntityID int
	// Values holds one string per table attribute.
	Values []string
}

// Table is a named collection of records over a fixed attribute schema.
//
// A Table built once is immutable by convention; the streaming path grows
// it through Append, which validates each batch, only ever adds records at
// the end and bumps the table's version by one.
type Table struct {
	Name       string
	Attributes []string
	Records    []Record

	// version counts successful Appends.
	version int
	// idSeen indexes Records by id for Append's duplicate check. Built
	// lazily on first Append from the records present at that point.
	idSeen map[int]struct{}
}

// Validate checks structural invariants: non-empty schema, per-record value
// arity, and unique record ids.
func (t *Table) Validate() error {
	if len(t.Attributes) == 0 {
		return fmt.Errorf("%w: table %q has no attributes", ErrBadTable, t.Name)
	}
	seen := make(map[int]struct{}, len(t.Records))
	for i, r := range t.Records {
		if len(r.Values) != len(t.Attributes) {
			return fmt.Errorf("%w: table %q record %d has %d values, want %d", ErrBadTable, t.Name, i, len(r.Values), len(t.Attributes))
		}
		if _, dup := seen[r.ID]; dup {
			return fmt.Errorf("%w: table %q has duplicate record id %d", ErrBadTable, t.Name, r.ID)
		}
		seen[r.ID] = struct{}{}
	}
	return nil
}

// AttributeIndex returns the position of the named attribute, or an error.
func (t *Table) AttributeIndex(name string) (int, error) {
	for i, a := range t.Attributes {
		if a == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: table %q has no attribute %q", ErrBadTable, t.Name, name)
}

// Column returns the values of attribute i across all records, in record
// order. It is the input to similarity.DistinctValueWeights.
func (t *Table) Column(i int) []string {
	if i < 0 || i >= len(t.Attributes) {
		panic(fmt.Sprintf("records: column %d out of range for table %q", i, t.Name))
	}
	out := make([]string, len(t.Records))
	for j, r := range t.Records {
		out[j] = r.Values[i]
	}
	return out
}

// Len returns the number of records.
func (t *Table) Len() int { return len(t.Records) }

// Append adds recs to the table as one atomic batch and returns the new
// version number. Version 0 is the table as constructed; each successful
// Append bumps the version by one, even for an empty batch. Every record is
// validated against the schema and the table's id set before anything is
// appended, so a failed Append leaves the table untouched.
//
// Append is not safe for concurrent use with itself or with readers.
func (t *Table) Append(recs ...Record) (version int, err error) {
	if len(t.Attributes) == 0 {
		return 0, fmt.Errorf("%w: table %q has no attributes", ErrBadTable, t.Name)
	}
	if t.idSeen == nil {
		t.idSeen = make(map[int]struct{}, len(t.Records)+len(recs))
		for _, r := range t.Records {
			t.idSeen[r.ID] = struct{}{}
		}
	}
	// Validate the whole batch (against the table and within itself)
	// before mutating anything, so a failed Append leaves no trace.
	batch := make(map[int]struct{}, len(recs))
	for i, r := range recs {
		if len(r.Values) != len(t.Attributes) {
			return 0, fmt.Errorf("%w: table %q appended record %d has %d values, want %d", ErrBadTable, t.Name, i, len(r.Values), len(t.Attributes))
		}
		if _, dup := t.idSeen[r.ID]; dup {
			return 0, fmt.Errorf("%w: table %q append would duplicate record id %d", ErrBadTable, t.Name, r.ID)
		}
		if _, dup := batch[r.ID]; dup {
			return 0, fmt.Errorf("%w: table %q append batch duplicates record id %d", ErrBadTable, t.Name, r.ID)
		}
		batch[r.ID] = struct{}{}
	}
	for id := range batch {
		t.idSeen[id] = struct{}{}
	}
	t.Records = append(t.Records, recs...)
	t.version++
	return t.version, nil
}
