// Package lattice implements the full-domain generalization lattice and the
// searches the paper builds on it: minimal-node enumeration for monotone
// criteria, binary search along chains (justified by Theorem 14), and the
// Incognito algorithm [22] with its subset and generalization pruning.
//
// The package is deliberately independent of tables and hierarchies: a node
// is a vector of generalization levels, and callers supply predicates.
package lattice

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is a generalization level per dimension. Node a is below node b
// (a ⪯ b, "more specific") when a[i] <= b[i] for every i.
type Node []int

// Clone copies the node.
func (n Node) Clone() Node {
	c := make(Node, len(n))
	copy(c, n)
	return c
}

// Height is the sum of levels — the node's rank in the lattice.
func (n Node) Height() int {
	h := 0
	for _, l := range n {
		h += l
	}
	return h
}

// Key is a canonical string form, usable as a map key.
func (n Node) Key() string {
	parts := make([]string, len(n))
	for i, l := range n {
		parts[i] = strconv.Itoa(l)
	}
	return strings.Join(parts, ",")
}

// String renders the node like "[1 0 2]".
func (n Node) String() string { return "[" + strings.ReplaceAll(n.Key(), ",", " ") + "]" }

// Leq reports a ⪯ b (a at-or-below b in every dimension).
func Leq(a, b Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Space is a product lattice with Dims()[i] levels in dimension i.
type Space struct {
	dims []int
}

// NewSpace validates the dimension sizes (each at least 1).
func NewSpace(dims []int) (Space, error) {
	if len(dims) == 0 {
		return Space{}, fmt.Errorf("lattice: no dimensions")
	}
	for i, d := range dims {
		if d < 1 {
			return Space{}, fmt.Errorf("lattice: dimension %d has %d levels", i, d)
		}
	}
	return Space{dims: append([]int(nil), dims...)}, nil
}

// MustSpace is NewSpace for statically known shapes.
func MustSpace(dims ...int) Space {
	s, err := NewSpace(dims)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns a copy of the dimension sizes.
func (s Space) Dims() []int { return append([]int(nil), s.dims...) }

// NumDims returns the number of dimensions.
func (s Space) NumDims() int { return len(s.dims) }

// Size returns the number of nodes.
func (s Space) Size() int {
	n := 1
	for _, d := range s.dims {
		n *= d
	}
	return n
}

// MaxHeight returns the height of the top node.
func (s Space) MaxHeight() int {
	h := 0
	for _, d := range s.dims {
		h += d - 1
	}
	return h
}

// Bottom returns the all-zeros node (the paper's B⊥ direction: most
// specific).
func (s Space) Bottom() Node { return make(Node, len(s.dims)) }

// Top returns the fully generalized node (toward B⊤).
func (s Space) Top() Node {
	n := make(Node, len(s.dims))
	for i, d := range s.dims {
		n[i] = d - 1
	}
	return n
}

// Contains reports whether the node is a valid member of the space.
func (s Space) Contains(n Node) bool {
	if len(n) != len(s.dims) {
		return false
	}
	for i, l := range n {
		if l < 0 || l >= s.dims[i] {
			return false
		}
	}
	return true
}

// Parents returns the immediate generalizations (one level up in one
// dimension), in dimension order.
func (s Space) Parents(n Node) []Node {
	var out []Node
	for i := range n {
		if n[i]+1 < s.dims[i] {
			p := n.Clone()
			p[i]++
			out = append(out, p)
		}
	}
	return out
}

// Children returns the immediate specializations (one level down in one
// dimension), in dimension order.
func (s Space) Children(n Node) []Node {
	var out []Node
	for i := range n {
		if n[i] > 0 {
			c := n.Clone()
			c[i]--
			out = append(out, c)
		}
	}
	return out
}

// All enumerates every node, sorted by height and then lexicographically —
// the bottom-up evaluation order used by the searches.
func (s Space) All() []Node {
	nodes := make([]Node, 0, s.Size())
	cur := s.Bottom()
	for {
		nodes = append(nodes, cur.Clone())
		// Odometer increment.
		i := len(cur) - 1
		for i >= 0 {
			cur[i]++
			if cur[i] < s.dims[i] {
				break
			}
			cur[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	sort.Slice(nodes, func(a, b int) bool {
		ha, hb := nodes[a].Height(), nodes[b].Height()
		if ha != hb {
			return ha < hb
		}
		for i := range nodes[a] {
			if nodes[a][i] != nodes[b][i] {
				return nodes[a][i] < nodes[b][i]
			}
		}
		return false
	})
	return nodes
}

// Levels groups All() by height: Levels()[h] holds the height-h nodes in
// lexicographic order, so iterating levels in order and each level in slice
// order visits nodes exactly as All() does. The level-wise batch
// searches evaluate one level concurrently and use the next level boundary
// as their pruning barrier.
func (s Space) Levels() [][]Node {
	levels := make([][]Node, s.MaxHeight()+1)
	for _, n := range s.All() {
		h := n.Height()
		levels[h] = append(levels[h], n)
	}
	return levels
}

// Project restricts a node to the given dimensions (used by Incognito's
// subset lattices).
func Project(n Node, dims []int) Node {
	out := make(Node, len(dims))
	for i, d := range dims {
		out[i] = n[d]
	}
	return out
}

// SubSpace returns the lattice over a subset of this space's dimensions.
func (s Space) SubSpace(dims []int) (Space, error) {
	sub := make([]int, len(dims))
	for i, d := range dims {
		if d < 0 || d >= len(s.dims) {
			return Space{}, fmt.Errorf("lattice: dimension %d out of range", d)
		}
		sub[i] = s.dims[d]
	}
	return NewSpace(sub)
}
