// Package hierarchy implements domain generalization hierarchies (DGH) for
// full-domain generalization. A hierarchy maps a ground value to
// progressively coarser representations: level 0 is the identity and the top
// level is usually total suppression ("*").
//
// The key law is that levels are nested coarsenings: if two values
// generalize equally at level j they generalize equally at every level
// j' > j. The lattice search's monotonicity (Theorem 14) and Incognito's
// subset pruning rest on it, so it is enforced here, not merely assumed:
// the built-in hierarchies check it at construction, and Compile checks it
// for any Hierarchy over the concrete values of a table column (together
// with coverage of every value and at least one level). A problem whose
// hierarchies do not compile is rejected at construction.
package hierarchy

import (
	"fmt"
	"strconv"
)

// Suppressed is the conventional representation of a fully suppressed value.
const Suppressed = "*"

// Hierarchy is a domain generalization hierarchy over one attribute.
type Hierarchy interface {
	// Name returns the attribute name the hierarchy applies to.
	Name() string
	// Levels returns the number of generalization levels. Valid levels are
	// 0 .. Levels()-1; level 0 is the identity.
	Levels() int
	// Generalize maps a ground value to its representation at the given
	// level. It returns an error for unknown values or levels.
	Generalize(value string, level int) (string, error)
}

// Interval generalizes integer values into fixed-width, zero-anchored
// intervals. Width 1 means the identity and width 0 means suppression.
type Interval struct {
	name string
	// widths[l] is the interval width at level l; 0 denotes suppression.
	widths []int
}

// NewInterval builds an interval hierarchy. widths must start with 1 (the
// identity level), be strictly increasing while positive, and may end with
// one or more 0 entries (suppression).
func NewInterval(name string, widths []int) (*Interval, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("hierarchy: %s: no levels", name)
	}
	if widths[0] != 1 {
		return nil, fmt.Errorf("hierarchy: %s: level 0 width must be 1, got %d", name, widths[0])
	}
	for i := 1; i < len(widths); i++ {
		prev, cur := widths[i-1], widths[i]
		switch {
		case cur == 0:
			// Suppression; everything after must also be suppression.
		case prev == 0:
			return nil, fmt.Errorf("hierarchy: %s: width %d after suppression at level %d", name, cur, i)
		case cur <= prev:
			return nil, fmt.Errorf("hierarchy: %s: widths must increase (level %d: %d after %d)", name, i, cur, prev)
		case cur%prev != 0:
			// Divisibility guarantees the nested-coarsening law for
			// zero-anchored intervals.
			return nil, fmt.Errorf("hierarchy: %s: width %d at level %d not a multiple of %d", name, cur, i, prev)
		}
	}
	return &Interval{name: name, widths: widths}, nil
}

// MustInterval is NewInterval for statically known hierarchies.
func MustInterval(name string, widths []int) *Interval {
	h, err := NewInterval(name, widths)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements Hierarchy.
func (h *Interval) Name() string { return h.name }

// Levels implements Hierarchy.
func (h *Interval) Levels() int { return len(h.widths) }

// Generalize implements Hierarchy. At width w > 1 the value n maps to the
// half-open interval [floor(n/w)*w, floor(n/w)*w + w) rendered as "lo-hi".
func (h *Interval) Generalize(value string, level int) (string, error) {
	if level < 0 || level >= len(h.widths) {
		return "", fmt.Errorf("hierarchy: %s: level %d out of range [0, %d)", h.name, level, len(h.widths))
	}
	w := h.widths[level]
	if w == 0 {
		return Suppressed, nil
	}
	n, err := strconv.Atoi(value)
	if err != nil {
		return "", fmt.Errorf("hierarchy: %s: %q is not an integer", h.name, value)
	}
	if w == 1 {
		return strconv.Itoa(n), nil
	}
	lo := (n / w) * w
	if n < 0 && n%w != 0 {
		lo -= w
	}
	return fmt.Sprintf("%d-%d", lo, lo+w-1), nil
}

// Levelled generalizes categorical values through explicit per-level maps.
type Levelled struct {
	name string
	// maps[l] maps a ground value to its level-l representation, for
	// l >= 1. Level 0 is the identity.
	maps []map[string]string
}

// NewLevelled builds a categorical hierarchy from per-level maps over the
// ground domain. Each map must cover the whole domain, and the levels must
// be nested coarsenings of one another.
func NewLevelled(name string, domain []string, levelMaps []map[string]string) (*Levelled, error) {
	if len(domain) == 0 {
		return nil, fmt.Errorf("hierarchy: %s: empty domain", name)
	}
	for l, m := range levelMaps {
		for _, v := range domain {
			if _, ok := m[v]; !ok {
				return nil, fmt.Errorf("hierarchy: %s: level %d does not map %q", name, l+1, v)
			}
		}
	}
	// Verify nesting: equal at level l implies equal at level l+1.
	for l := 0; l+1 < len(levelMaps); l++ {
		coarser := make(map[string]string) // level-l value -> level-l+1 value
		for _, v := range domain {
			cur, next := levelMaps[l][v], levelMaps[l+1][v]
			if prev, ok := coarser[cur]; ok && prev != next {
				return nil, fmt.Errorf("hierarchy: %s: level %d splits %q (%q vs %q)", name, l+2, cur, prev, next)
			}
			coarser[cur] = next
		}
	}
	return &Levelled{name: name, maps: levelMaps}, nil
}

// MustLevelled is NewLevelled for statically known hierarchies.
func MustLevelled(name string, domain []string, levelMaps []map[string]string) *Levelled {
	h, err := NewLevelled(name, domain, levelMaps)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements Hierarchy.
func (h *Levelled) Name() string { return h.name }

// Levels implements Hierarchy.
func (h *Levelled) Levels() int { return len(h.maps) + 1 }

// Generalize implements Hierarchy.
func (h *Levelled) Generalize(value string, level int) (string, error) {
	if level < 0 || level > len(h.maps) {
		return "", fmt.Errorf("hierarchy: %s: level %d out of range [0, %d]", h.name, level, len(h.maps))
	}
	if level == 0 {
		return value, nil
	}
	g, ok := h.maps[level-1][value]
	if !ok {
		return "", fmt.Errorf("hierarchy: %s: unknown value %q", h.name, value)
	}
	return g, nil
}

// NewSuppression builds the common two-level hierarchy: identity, then "*".
func NewSuppression(name string, domain []string) *Levelled {
	m := make(map[string]string, len(domain))
	for _, v := range domain {
		m[v] = Suppressed
	}
	return &Levelled{name: name, maps: []map[string]string{m}}
}

// Set is the collection of hierarchies for a table's quasi-identifiers,
// keyed by attribute name.
type Set map[string]Hierarchy

// Dims returns the level counts for the named attributes, in order. This is
// the shape of the full-domain generalization lattice.
func (s Set) Dims(names []string) ([]int, error) {
	dims := make([]int, len(names))
	for i, n := range names {
		h, ok := s[n]
		if !ok {
			return nil, fmt.Errorf("hierarchy: no hierarchy for attribute %q", n)
		}
		dims[i] = h.Levels()
	}
	return dims, nil
}
