package records

import (
	"errors"
	"testing"
)

func validTable() *Table {
	return &Table{
		Name:       "t",
		Attributes: []string{"name", "desc"},
		Records: []Record{
			{ID: 0, EntityID: 10, Values: []string{"a", "x"}},
			{ID: 1, EntityID: 11, Values: []string{"b", "y"}},
			{ID: 2, EntityID: 10, Values: []string{"c", "z"}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validTable().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	empty := &Table{Name: "e"}
	if err := empty.Validate(); !errors.Is(err, ErrBadTable) {
		t.Error("empty schema should fail")
	}
	bad := validTable()
	bad.Records[1].Values = []string{"only-one"}
	if err := bad.Validate(); !errors.Is(err, ErrBadTable) {
		t.Error("arity mismatch should fail")
	}
	dup := validTable()
	dup.Records[2].ID = 0
	if err := dup.Validate(); !errors.Is(err, ErrBadTable) {
		t.Error("duplicate id should fail")
	}
}

func TestAttributeIndex(t *testing.T) {
	tab := validTable()
	i, err := tab.AttributeIndex("desc")
	if err != nil || i != 1 {
		t.Fatalf("AttributeIndex(desc) = %d, %v", i, err)
	}
	if _, err := tab.AttributeIndex("missing"); !errors.Is(err, ErrBadTable) {
		t.Error("missing attribute should fail")
	}
}

func TestColumn(t *testing.T) {
	tab := validTable()
	col := tab.Column(0)
	want := []string{"a", "b", "c"}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("Column(0) = %v, want %v", col, want)
		}
	}
	if tab.Len() != 3 {
		t.Errorf("Len = %d, want 3", tab.Len())
	}
}

func TestColumnPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range column should panic")
		}
	}()
	validTable().Column(5)
}

func TestAppendVersions(t *testing.T) {
	tb := &Table{Name: "t", Attributes: []string{"name"}, Records: []Record{{ID: 1, Values: []string{"a"}}}}
	if v, err := tb.Append(Record{ID: 2, Values: []string{"b"}}); err != nil || v != 1 {
		t.Fatalf("first Append = %d, %v; want version 1", v, err)
	}
	if v, err := tb.Append(); err != nil || v != 2 {
		t.Fatalf("empty Append = %d, %v; want version 2", v, err)
	}
	// A batch that duplicates an id fails whole: no record, no version.
	if _, err := tb.Append(Record{ID: 3, Values: []string{"c"}}, Record{ID: 1, Values: []string{"x"}}); !errors.Is(err, ErrBadTable) {
		t.Fatalf("duplicate Append err = %v, want ErrBadTable", err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after failed Append = %d, want 2", tb.Len())
	}
	if v, err := tb.Append(Record{ID: 3, Values: []string{"c"}}); err != nil || v != 3 {
		t.Fatalf("Append after failure = %d, %v; want version 3", v, err)
	}
}
