package hierarchy

import (
	"fmt"
	"testing"
)

// TestCompileParity pins the compiled-form contract: for every ground
// code and level, Value(l, Lut(l)[c]) equals the interface Generalize.
func TestCompileParity(t *testing.T) {
	domain := []string{"3", "17", "0", "42", "9", "17", "25"}
	hs := []Hierarchy{
		MustInterval("Age", []int{1, 5, 25, 0}),
		NewSuppression("Tag", domain),
		MustLevelled("Job", []string{"a", "b", "c", "d"}, []map[string]string{
			{"a": "x", "b": "x", "c": "y", "d": "y"},
			{"a": "*", "b": "*", "c": "*", "d": "*"},
		}),
	}
	domains := [][]string{domain, domain, {"c", "a", "d", "b"}}
	for i, h := range hs {
		c, err := Compile(h, domains[i])
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		if c.Levels() != h.Levels() {
			t.Fatalf("%s: Levels = %d, want %d", h.Name(), c.Levels(), h.Levels())
		}
		for l := 0; l < h.Levels(); l++ {
			lut := c.Lut(l)
			seen := make(map[uint32]bool)
			for code, v := range domains[i] {
				want, err := h.Generalize(v, l)
				if err != nil {
					t.Fatalf("%s: Generalize(%q, %d): %v", h.Name(), v, l, err)
				}
				if got := c.Value(l, lut[code]); got != want {
					t.Fatalf("%s level %d code %d: compiled %q, want %q", h.Name(), l, code, got, want)
				}
				seen[lut[code]] = true
			}
			if len(seen) != c.Cardinality(l) {
				t.Fatalf("%s level %d: cardinality %d but %d codes reachable",
					h.Name(), l, c.Cardinality(l), len(seen))
			}
		}
	}
}

// splitter is a custom Hierarchy violating the nested-coarsening law:
// "a" and "b" agree at level 1 but split at level 2.
type splitter struct{}

func (splitter) Name() string { return "bad" }
func (splitter) Levels() int  { return 3 }
func (splitter) Generalize(v string, level int) (string, error) {
	switch level {
	case 0:
		return v, nil
	case 1:
		if v == "c" {
			return "y", nil
		}
		return "x", nil
	default:
		if v == "a" {
			return "p", nil
		}
		return "q", nil
	}
}

// TestCompileRejectsNonNested pins the safety check behind incremental
// coarsening: a custom Hierarchy whose levels are not nested coarsenings
// must fail compilation (and with it the problem built over it) instead
// of silently mis-partitioning derived bucketizations.
func TestCompileRejectsNonNested(t *testing.T) {
	if _, err := Compile(splitter{}, []string{"a", "b", "c"}); err == nil {
		t.Fatal("Compile accepted a hierarchy violating the nested-coarsening law")
	}
}

// TestCompileUnknownValue pins eager failure on values the hierarchy
// cannot generalize — the same inputs the row-by-row path rejects lazily.
func TestCompileUnknownValue(t *testing.T) {
	h := MustLevelled("Job", []string{"a", "b"}, []map[string]string{{"a": "*", "b": "*"}})
	if _, err := Compile(h, []string{"a", "zzz"}); err == nil {
		t.Fatal("Compile accepted a value outside the hierarchy domain")
	}
	iv := MustInterval("Age", []int{1, 10, 0})
	if _, err := Compile(iv, []string{"12", "not-a-number"}); err == nil {
		t.Fatal("Compile accepted a non-integer for an interval hierarchy")
	}
}

// noLevels is a custom Hierarchy without even the identity level.
type noLevels struct{}

func (noLevels) Name() string { return "empty" }
func (noLevels) Levels() int  { return 0 }
func (noLevels) Generalize(v string, level int) (string, error) {
	return "", fmt.Errorf("no level %d", level)
}

// TestCompileRejectsZeroLevels pins that a hierarchy with no levels is an
// error from Compile and Extend, not an index panic on the level-0 table.
func TestCompileRejectsZeroLevels(t *testing.T) {
	if _, err := Compile(noLevels{}, []string{"a"}); err == nil {
		t.Fatal("Compile accepted a zero-level hierarchy")
	}
	c, err := Compile(NewSuppression("empty", []string{"a"}), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, domain := range [][]string{{"a"}, {"a", "b"}} {
		if _, err := c.Extend(noLevels{}, domain); err == nil {
			t.Fatalf("Extend over %v accepted a zero-level hierarchy", domain)
		}
	}
}
