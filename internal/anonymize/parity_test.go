package anonymize

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
)

// Randomized search-parity harness: for random tables, hierarchies, QI
// orders and (c,k) policies, a Problem on the encoded path must return
// byte-identical search results — nodes, stats, bucketizations,
// disclosure values — to the reference oracles at every worker count.

// oracle is the reference every production path is checked against: the
// row-by-row string scan bucket.FromGeneralization at each node,
// uncached, driven by the serial lattice searches.
type oracle struct {
	tab   *table.Table
	hs    hierarchy.Set
	qi    []string
	space lattice.Space
}

func newOracle(t *testing.T, tab *table.Table, hs hierarchy.Set, qi []string) *oracle {
	t.Helper()
	dims, err := hs.Dims(qi)
	if err != nil {
		t.Fatal(err)
	}
	space, err := lattice.NewSpace(dims)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{tab: tab, hs: hs, qi: qi, space: space}
}

// bucketize scans the table at subset's levels, every other QI suppressed.
func (o *oracle) bucketize(subset []int, node lattice.Node) (*bucket.Bucketization, error) {
	levels := bucket.Levels{}
	for _, col := range o.tab.Schema.QuasiIdentifiers() {
		name := o.tab.Schema.Attrs[col].Name
		levels[name] = o.hs[name].Levels() - 1
	}
	for i, d := range subset {
		levels[o.qi[d]] = node[i]
	}
	return bucket.FromGeneralization(o.tab, o.hs, levels)
}

func (o *oracle) pred(crit privacy.Criterion) lattice.Pred {
	id := identitySubset(len(o.qi))
	return func(n lattice.Node) (bool, error) {
		bz, err := o.bucketize(id, n)
		if err != nil {
			return false, err
		}
		return crit.Satisfied(bz)
	}
}

func (o *oracle) check(crit privacy.Criterion) lattice.SubsetPred {
	return func(subset []int, n lattice.Node) (bool, error) {
		bz, err := o.bucketize(subset, n)
		if err != nil {
			return false, err
		}
		return crit.Satisfied(bz)
	}
}

// snapshotCheck is a fresh problem's per-node subset predicate: every
// call is a Bucketize cache hit or a one-node planned sweep.
func snapshotCheck(s *Snapshot, crit privacy.Criterion) lattice.SubsetPred {
	return func(subset []int, n lattice.Node) (bool, error) {
		bz, err := s.BucketizeSubset(subset, n)
		if err != nil {
			return false, err
		}
		return crit.Satisfied(bz)
	}
}

// requireOracleSearches runs the problem's three searches and asserts
// they return the nodes and stats of the serial lattice searches, driven
// once by the string-scan oracle and once by a fresh problem's per-node
// predicate over the same rows. ChainSearch's multi-section probing
// changes its Evaluated count with the worker budget, so its stats are
// held to the serial search only at one worker and otherwise to the
// nil-prefetch batch search at the same budget.
func requireOracleSearches(t *testing.T, label string, p *Problem, o *oracle, crit privacy.Criterion) {
	t.Helper()
	fresh, err := NewProblem(o.tab, o.hs, o.qi)
	if err != nil {
		t.Fatalf("%s: fresh problem: %v", label, err)
	}
	fs := fresh.Snapshot()
	refs := []struct {
		name  string
		pred  lattice.Pred
		check lattice.SubsetPred
	}{
		{"string oracle", o.pred(crit), o.check(crit)},
		{"per-node", fs.Pred(crit), snapshotCheck(fs, crit)},
	}

	gotN, gotS, err := p.MinimalSafe(crit)
	if err != nil {
		t.Fatalf("%s: MinimalSafe: %v", label, err)
	}
	incN, incS, err := p.MinimalSafeIncognito(crit)
	if err != nil {
		t.Fatalf("%s: Incognito: %v", label, err)
	}
	chN, chOK, chS, err := p.ChainSearch(crit)
	if err != nil {
		t.Fatalf("%s: ChainSearch: %v", label, err)
	}
	workers, chain := p.Workers(), o.space.Chain()
	for _, ref := range refs {
		wn, ws, err := lattice.MinimalSatisfying(o.space, ref.pred)
		if err != nil {
			t.Fatalf("%s: %s MinimalSatisfying: %v", label, ref.name, err)
		}
		if !reflect.DeepEqual(wn, gotN) || ws != gotS {
			t.Fatalf("%s: MinimalSafe %v %+v, %s %v %+v", label, gotN, gotS, ref.name, wn, ws)
		}

		wn, ws, err = lattice.Incognito(o.space, ref.check)
		if err != nil {
			t.Fatalf("%s: %s Incognito: %v", label, ref.name, err)
		}
		if !reflect.DeepEqual(wn, incN) || ws != incS {
			t.Fatalf("%s: Incognito %v %+v, %s %v %+v", label, incN, incS, ref.name, wn, ws)
		}

		idx, cs, err := lattice.BinarySearchChain(chain, ref.pred)
		if err != nil {
			t.Fatalf("%s: %s BinarySearchChain: %v", label, ref.name, err)
		}
		if workers > 1 {
			if _, cs, err = lattice.BinarySearchChainBatch(chain, ref.pred, nil, workers); err != nil {
				t.Fatalf("%s: %s BinarySearchChainBatch: %v", label, ref.name, err)
			}
		}
		var want lattice.Node
		if idx >= 0 {
			want = chain[idx]
		}
		if chOK != (idx >= 0) || !reflect.DeepEqual(want, chN) || cs != chS {
			t.Fatalf("%s: ChainSearch %v/%v %+v, %s %v/%v %+v", label, chN, chOK, chS, ref.name, want, idx >= 0, cs)
		}
	}
}

// requireOracleBucketizations asserts the problem's bucketization at
// every lattice node is byte-identical to the string-scan oracle's, with
// equal max disclosure at k.
func requireOracleBucketizations(t *testing.T, label string, s *Snapshot, o *oracle, k int) {
	t.Helper()
	id := identitySubset(len(o.qi))
	for _, node := range o.space.All() {
		got, err := s.Bucketize(node)
		if err != nil {
			t.Fatalf("%s: bucketize %v: %v", label, node, err)
		}
		want, err := o.bucketize(id, node)
		if err != nil {
			t.Fatalf("%s: oracle bucketize %v: %v", label, node, err)
		}
		assertSameBucketization(t, fmt.Sprintf("%s node %v", label, node), want, got)
		wd, err := core.MaxDisclosure(want, k)
		if err != nil {
			t.Fatalf("%s: oracle disclosure %v: %v", label, node, err)
		}
		gd, err := core.MaxDisclosure(got, k)
		if err != nil {
			t.Fatalf("%s: disclosure %v: %v", label, node, err)
		}
		if wd != gd {
			t.Fatalf("%s: disclosure at %v: %v, oracle %v", label, node, gd, wd)
		}
	}
}

// randomProblemCase draws a random table + hierarchy set (every QI gets a
// hierarchy so subset searches can suppress attributes).
func randomProblemCase(rng *rand.Rand) (*table.Table, hierarchy.Set, []string) {
	nQI := 2 + rng.Intn(2)
	attrs := make([]table.Attribute, 0, nQI+1)
	hs := hierarchy.Set{}
	qi := make([]string, 0, nQI)
	widths := [][]int{{1, 2, 4, 0}, {1, 5, 0}, {1, 10, 0}}
	for i := 0; i < nQI; i++ {
		name := fmt.Sprintf("q%d", i)
		qi = append(qi, name)
		if rng.Intn(2) == 0 {
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Numeric, Min: 0, Max: 99})
			hs[name] = hierarchy.MustInterval(name, widths[rng.Intn(len(widths))])
		} else {
			d := 2 + rng.Intn(4)
			domain := make([]string, d)
			for j := range domain {
				domain[j] = fmt.Sprintf("c%d", j)
			}
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Categorical, Domain: domain})
			hs[name] = hierarchy.NewSuppression(name, domain)
		}
	}
	sdom := []string{"s0", "s1", "s2", "s3"}
	attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: sdom})
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		panic(err)
	}
	tab := table.New(s)
	rows := 10 + rng.Intn(80)
	for r := 0; r < rows; r++ {
		row := make(table.Row, len(attrs))
		for c, a := range attrs {
			if a.Kind == table.Numeric {
				row[c] = strconv.Itoa(rng.Intn(100))
			} else {
				row[c] = a.Domain[rng.Intn(len(a.Domain))]
			}
		}
		tab.MustAppend(row)
	}
	// Shuffle the QI order so lattice dimension order varies too.
	rng.Shuffle(len(qi), func(i, j int) { qi[i], qi[j] = qi[j], qi[i] })
	return tab, hs, qi
}

// TestSearchParityEncodedVsLegacy runs all three searches on the encoded
// path and asserts identical nodes, stats, bucketizations and disclosure
// values to the string-scan oracle.
func TestSearchParityEncodedVsLegacy(t *testing.T) {
	cases := 25
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		c := []float64{0.4, 0.6, 0.8}[rng.Intn(3)]
		k := rng.Intn(3)
		o := newOracle(t, tab, hs, qi)
		for _, workers := range []int{1, 4} {
			encoded, err := NewProblemWithOptions(tab, hs, qi, Options{Workers: workers})
			if err != nil {
				t.Fatalf("case %d: encoded problem: %v", i, err)
			}
			label := fmt.Sprintf("case %d (c=%v k=%d workers=%d)", i, c, k, workers)
			requireOracleSearches(t, label, encoded, o, privacy.CKSafety{C: c, K: k, Engine: encoded.Engine()})
			requireOracleBucketizations(t, label, encoded.Snapshot(), o, k)
		}
	}
}

// nonNested is a custom Hierarchy violating the nested-coarsening law
// ("a" and "b" agree at level 1 but split at level 2).
type nonNested struct{}

func (nonNested) Name() string { return "q0" }
func (nonNested) Levels() int  { return 3 }
func (nonNested) Generalize(v string, level int) (string, error) {
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

// nonNestedCase draws a random table whose q0 hierarchy is nonNested, so
// no problem can be built over it; q1 is an ordinary interval attribute
// so the lattice has more than one dimension.
func nonNestedCase(rng *rand.Rand) (*table.Table, hierarchy.Set, []string) {
	s, err := table.NewSchema([]table.Attribute{
		{Name: "q0", Kind: table.Categorical, Domain: []string{"a", "b", "c"}},
		{Name: "q1", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1", "s2"}},
	}, "sens")
	if err != nil {
		panic(err)
	}
	tab := table.New(s)
	for r := 0; r < 10+rng.Intn(60); r++ {
		q0 := []string{"a", "b", "c"}[rng.Intn(3)]
		if r < 2 {
			q0 = []string{"a", "b"}[r] // a and b split only at level 2
		}
		tab.MustAppend(table.Row{q0, strconv.Itoa(rng.Intn(100)), []string{"s0", "s1", "s2"}[rng.Intn(3)]})
	}
	hs := hierarchy.Set{"q0": nonNested{}, "q1": hierarchy.MustInterval("q1", []int{1, 10, 0})}
	return tab, hs, []string{"q0", "q1"}
}

// zeroLevels is a custom Hierarchy without even the identity level.
type zeroLevels struct{ name string }

func (h zeroLevels) Name() string { return h.name }
func (zeroLevels) Levels() int    { return 0 }
func (zeroLevels) Generalize(v string, level int) (string, error) {
	return "", fmt.Errorf("no level %d", level)
}

// TestNewProblemRejectsNonCompilingHierarchies pins the input contract:
// a problem is built only when every hierarchy compiles over the table's
// values. The lattice searches are sound only under the nested-coarsening
// law. The row-by-row path that used to serve non-nested hierarchies gave
// answers that depended on the search: over 400 random nonNestedCase
// tables (seed 1) × {k-anonymity K=5, (0.5,1)-safety}, MinimalSafe and
// MinimalSafeIncognito disagreed on 63 of the 800 problems (e.g. [[1 2]]
// from one and [] from the other). So such inputs, values outside their
// hierarchy, and hierarchies without levels are rejected at construction
// with an error naming the attribute, and never panic.
func TestNewProblemRejectsNonCompilingHierarchies(t *testing.T) {
	nested, nestedHS, nestedQI := nonNestedCase(rand.New(rand.NewSource(9)))

	s, err := table.NewSchema([]table.Attribute{
		{Name: "City", Kind: table.Categorical, Domain: []string{"a", "b", "c"}},
		{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1"}},
	}, "sens")
	if err != nil {
		t.Fatal(err)
	}
	city := table.New(s)
	city.MustAppend(table.Row{"a", "s0"})
	city.MustAppend(table.Row{"c", "s1"}) // schema-legal, outside the hierarchy
	covered := hierarchy.NewSuppression("City", []string{"a", "b", "c"})

	cases := []struct {
		name string
		tab  *table.Table
		hs   hierarchy.Set
		qi   []string
		attr string
	}{
		{"non-nested", nested, nestedHS, nestedQI, "q0"},
		{"uncovered value", city, hierarchy.Set{"City": hierarchy.NewSuppression("City", []string{"a", "b"})}, []string{"City"}, "City"},
		{"zero-level sensitive", city, hierarchy.Set{"City": covered, "sens": zeroLevels{"sens"}}, []string{"City"}, "sens"},
		{"zero-level quasi-identifier", city, hierarchy.Set{"City": zeroLevels{"City"}}, []string{"City"}, "City"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			p, err := NewProblemWithOptions(tc.tab, tc.hs, tc.qi, Options{Workers: workers})
			if err == nil {
				t.Fatalf("%s: NewProblem accepted the hierarchies (problem %p)", tc.name, p)
			}
			if !strings.Contains(err.Error(), tc.attr) {
				t.Fatalf("%s: error %q does not name attribute %q", tc.name, err, tc.attr)
			}
		}
	}
	// The same table under a covering hierarchy is accepted.
	if _, err := NewProblem(city, hierarchy.Set{"City": covered}, []string{"City"}); err != nil {
		t.Fatal(err)
	}
}

// TestCoarsenIndexSeeded checks the incremental derivation is actually in
// play: after a full-lattice sweep, the problem has recorded one source
// per materialized vector and a repeated sweep hits the cache.
func TestCoarsenIndexSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab, hs, qi := randomProblemCase(rng)
	p, err := NewProblem(tab, hs, qi)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range p.Space().All() {
		if _, err := p.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p.cur.Load().sources.size(), p.Space().Size(); got != want {
		t.Fatalf("coarsen index has %d entries, want %d", got, want)
	}
	before := p.CacheStats()
	for _, node := range p.Space().All() {
		if _, err := p.Bucketize(node); err != nil {
			t.Fatal(err)
		}
	}
	after := p.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("repeat sweep missed the cache: %d -> %d misses", before.Misses, after.Misses)
	}
}
