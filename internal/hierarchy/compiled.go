package hierarchy

import "fmt"

// Compiled is a hierarchy specialized to one concrete ground domain (a
// table column's dictionary, in code order): for every level, a dense
// lookup table from a level-0 code to its generalized code, plus the
// interned string of every generalized code. Generalizing a value becomes
// one array index instead of a map lookup and string churn; the strings
// are only touched when a bucket key is materialized, once per bucket
// rather than once per row.
//
// Invariants:
//   - Levels() >= 1. Lut(0) is the identity and Value(0, c) == domain[c]:
//     level 0 is the raw dictionary, so two ground strings a hierarchy
//     would render alike at level 0 (Interval renders "007" as "7") keep
//     distinct level-0 codes, exactly as the row-by-row scan keeps them
//     in distinct buckets (neither path calls Generalize at level 0).
//   - Value(l, Lut(l)[c]) == h.Generalize(domain[c], l) for every level
//     l >= 1 and ground code c — compiled generalization is byte-identical
//     to the interface it was compiled from.
//   - Generalized codes are assigned by first appearance in ground-code
//     order, so compilation is deterministic.
type Compiled struct {
	name string
	// lut[l][c] is the generalized code of ground code c at level l.
	lut [][]uint32
	// values[l][g] is the string of generalized code g at level l.
	values [][]string
}

// Compile specializes h to the ground domain (one string per level-0
// code, in code order). It fails if h has no levels, if h cannot
// generalize some domain value at some level, or if the hierarchy
// violates the nested-coarsening law over this domain (values equal at
// level l must stay equal at every level above). The built-in
// hierarchies enforce the law at construction, but Hierarchy is an open
// interface. The lattice searches' monotonicity and the coarsening
// derivation are only sound under the law, so a violating custom
// implementation fails here, and with it the problem built over it.
func Compile(h Hierarchy, domain []string) (*Compiled, error) {
	levels := h.Levels()
	if levels < 1 {
		return nil, errNoLevels(h)
	}
	c := &Compiled{
		name:   h.Name(),
		lut:    make([][]uint32, levels),
		values: make([][]string, levels),
	}
	// Level 0 is the identity over the ground domain.
	id := make([]uint32, len(domain))
	for i := range id {
		id[i] = uint32(i)
	}
	c.lut[0] = id
	c.values[0] = append([]string(nil), domain...)
	for l := 1; l < levels; l++ {
		lut := make([]uint32, len(domain))
		interned := make(map[string]uint32)
		var vals []string
		for i, v := range domain {
			g, err := h.Generalize(v, l)
			if err != nil {
				return nil, fmt.Errorf("hierarchy: compiling %s level %d: %w", h.Name(), l, err)
			}
			code, ok := interned[g]
			if !ok {
				code = uint32(len(vals))
				vals = append(vals, g)
				interned[g] = code
			}
			lut[i] = code
		}
		// Nesting check: the level-l code must be a function of the
		// level-(l-1) code.
		prev := c.lut[l-1]
		coarser := make(map[uint32]uint32, len(vals))
		for i := range domain {
			if g, ok := coarser[prev[i]]; ok && g != lut[i] {
				return nil, fmt.Errorf(
					"hierarchy: compiling %s: level %d splits %q (into %q and %q) — levels are not nested coarsenings",
					h.Name(), l, c.values[l-1][prev[i]], vals[g], vals[lut[i]])
			}
			coarser[prev[i]] = lut[i]
		}
		c.lut[l] = lut
		c.values[l] = vals
	}
	return c, nil
}

// Extend compiles the appended suffix of a grown ground domain onto a
// copy of the compiled hierarchy: domain must begin with the ground values
// the hierarchy was compiled over (in the same code order), followed by
// the newly appended values. Existing ground and generalized codes keep
// their assignments — new generalized codes are interned by first
// appearance in ground-code order, exactly as Compile would assign them on
// the full domain — so Extend(h, grown) is byte-identical to
// Compile(h, grown). The receiver is not modified: snapshots of the
// pre-append state keep decoding against the original tables.
func (c *Compiled) Extend(h Hierarchy, domain []string) (*Compiled, error) {
	if h.Levels() < 1 {
		return nil, errNoLevels(h)
	}
	old := len(c.lut[0])
	if len(domain) < old {
		return nil, fmt.Errorf(
			"hierarchy: extending %s: domain shrank from %d to %d values", c.name, old, len(domain))
	}
	out := &Compiled{
		name:   c.name,
		lut:    make([][]uint32, len(c.lut)),
		values: make([][]string, len(c.values)),
	}
	// Level 0 stays the identity over the grown domain.
	id := make([]uint32, len(domain))
	for i := range id {
		id[i] = uint32(i)
	}
	out.lut[0] = id
	out.values[0] = append([]string(nil), domain...)
	for l := 1; l < len(c.lut); l++ {
		lut := make([]uint32, len(domain))
		copy(lut, c.lut[l])
		vals := append([]string(nil), c.values[l]...)
		interned := make(map[string]uint32, len(vals))
		for g, v := range vals {
			interned[v] = uint32(g)
		}
		for i := old; i < len(domain); i++ {
			g, err := h.Generalize(domain[i], l)
			if err != nil {
				return nil, fmt.Errorf("hierarchy: extending %s level %d: %w", c.name, l, err)
			}
			code, ok := interned[g]
			if !ok {
				code = uint32(len(vals))
				vals = append(vals, g)
				interned[g] = code
			}
			lut[i] = code
		}
		// Nesting check over the appended codes: level l must still be a
		// function of level l-1 across the whole grown domain.
		prev := out.lut[l-1]
		coarser := make(map[uint32]uint32, len(vals))
		for i := range domain {
			if g, ok := coarser[prev[i]]; ok && g != lut[i] {
				return nil, fmt.Errorf(
					"hierarchy: extending %s: level %d splits %q (into %q and %q) — levels are not nested coarsenings",
					c.name, l, out.values[l-1][prev[i]], vals[g], vals[lut[i]])
			}
			coarser[prev[i]] = lut[i]
		}
		out.lut[l] = lut
		out.values[l] = vals
	}
	return out, nil
}

// errNoLevels rejects a hierarchy without even the identity level 0.
func errNoLevels(h Hierarchy) error {
	return fmt.Errorf("hierarchy: %s has %d levels, need at least 1 (level 0 is the identity)", h.Name(), h.Levels())
}

// Name returns the attribute name the compiled hierarchy applies to.
func (c *Compiled) Name() string { return c.name }

// Levels returns the number of generalization levels.
func (c *Compiled) Levels() int { return len(c.lut) }

// Lut returns the level's ground-code → generalized-code table. The
// returned slice is the compiled backing storage and must not be
// modified.
func (c *Compiled) Lut(level int) []uint32 { return c.lut[level] }

// Cardinality returns the number of distinct generalized codes at the
// level.
func (c *Compiled) Cardinality(level int) int { return len(c.values[level]) }

// Value decodes a generalized code at the given level.
func (c *Compiled) Value(level int, code uint32) string { return c.values[level][code] }

// CompiledSet maps attribute names to compiled hierarchies, mirroring Set
// for the encoded path.
type CompiledSet map[string]*Compiled
