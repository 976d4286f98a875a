package dataload

import (
	"fmt"
	"strings"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// Spec is a declarative dataset description: schema, hierarchies,
// quasi-identifier order and CSV rows. The server's dataset-registration
// endpoint unmarshals client JSON straight into it, so the field tags are
// the wire format.
type Spec struct {
	// Attributes describe the columns in CSV order.
	Attributes []AttrSpec `json:"attributes"`
	// Sensitive names the sensitive attribute.
	Sensitive string `json:"sensitive"`
	// Hierarchies describe one generalization hierarchy per
	// quasi-identifier.
	Hierarchies []HierarchySpec `json:"hierarchies"`
	// QI fixes the lattice's dimension order; empty means every
	// non-sensitive attribute in schema order.
	QI []string `json:"quasi_identifiers,omitempty"`
	// CSV holds the rows, with a header line matching Attributes.
	CSV string `json:"csv"`
	// DefaultLevels optionally sets the bundle's default generalization;
	// empty means every QI at level 0.
	DefaultLevels bucket.Levels `json:"default_levels,omitempty"`
}

// AttrSpec describes one column.
type AttrSpec struct {
	Name string `json:"name"`
	// Kind is "categorical" or "numeric".
	Kind string `json:"kind"`
	// Domain enumerates a categorical attribute's values.
	Domain []string `json:"domain,omitempty"`
	// Min and Max bound a numeric attribute (inclusive).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
}

// HierarchySpec describes one attribute's generalization hierarchy.
type HierarchySpec struct {
	// Attribute names the column the hierarchy generalizes.
	Attribute string `json:"attribute"`
	// Kind is "interval" (numeric; Widths required), "suppression"
	// (categorical; identity + "*"), or "levels" (categorical; explicit
	// per-level maps).
	Kind string `json:"kind"`
	// Widths are the interval widths per level, starting at 1; a trailing
	// 0 means full suppression.
	Widths []int `json:"widths,omitempty"`
	// Levels are the per-level value maps of a "levels" hierarchy.
	Levels []map[string]string `json:"levels,omitempty"`
}

// FromSpec validates a declarative dataset description and materializes it
// as a bundle named name.
func FromSpec(name string, spec Spec) (*Bundle, error) {
	schema, err := specSchema(spec)
	if err != nil {
		return nil, err
	}
	tab, err := table.ReadCSV(strings.NewReader(spec.CSV), schema)
	if err != nil {
		return nil, fmt.Errorf("dataload: %w", err)
	}
	if tab.Len() == 0 {
		return nil, fmt.Errorf("dataload: dataset %q: %w", name, ErrNoDataRows)
	}
	return specBundle(name, spec, tab)
}

// specSchema materializes just the schema of a declarative description —
// the part needed to decode a durable columnar snapshot before any rows
// exist.
func specSchema(spec Spec) (*table.Schema, error) {
	attrs := make([]table.Attribute, len(spec.Attributes))
	for i, a := range spec.Attributes {
		attr := table.Attribute{Name: a.Name, Domain: a.Domain, Min: a.Min, Max: a.Max}
		switch strings.ToLower(a.Kind) {
		case "categorical":
			attr.Kind = table.Categorical
		case "numeric":
			attr.Kind = table.Numeric
		default:
			return nil, fmt.Errorf("dataload: attribute %q: unknown kind %q (want categorical or numeric)", a.Name, a.Kind)
		}
		attrs[i] = attr
	}
	schema, err := table.NewSchema(attrs, spec.Sensitive)
	if err != nil {
		return nil, fmt.Errorf("dataload: %w", err)
	}
	return schema, nil
}

// specBundle assembles a bundle from a declarative description and an
// already-materialized table over its schema. FromSpec parses the spec's
// CSV into that table; the durable-store recovery path decodes it from a
// columnar snapshot instead — hierarchies, QI order and default levels
// come out identical either way.
//
// The hierarchies always compile over the table: a suppression or
// levelled hierarchy is built over the attribute's schema domain, the
// same domain every categorical value was validated against, and an
// interval hierarchy generalizes every integer.
func specBundle(name string, spec Spec, tab *table.Table) (*Bundle, error) {
	schema := tab.Schema
	var err error
	hs := hierarchy.Set{}
	for _, h := range spec.Hierarchies {
		col := schema.Index(h.Attribute)
		if col < 0 {
			return nil, fmt.Errorf("dataload: hierarchy for unknown attribute %q", h.Attribute)
		}
		attr := &schema.Attrs[col]
		var built hierarchy.Hierarchy
		switch strings.ToLower(h.Kind) {
		case "interval":
			if attr.Kind != table.Numeric {
				return nil, fmt.Errorf("dataload: interval hierarchy on non-numeric attribute %q", h.Attribute)
			}
			built, err = hierarchy.NewInterval(h.Attribute, h.Widths)
			if err != nil {
				return nil, fmt.Errorf("dataload: %w", err)
			}
		case "suppression":
			if attr.Kind != table.Categorical {
				return nil, fmt.Errorf("dataload: suppression hierarchy on non-categorical attribute %q", h.Attribute)
			}
			built = hierarchy.NewSuppression(h.Attribute, attr.Domain)
		case "levels":
			if attr.Kind != table.Categorical {
				return nil, fmt.Errorf("dataload: levelled hierarchy on non-categorical attribute %q", h.Attribute)
			}
			built, err = hierarchy.NewLevelled(h.Attribute, attr.Domain, h.Levels)
			if err != nil {
				return nil, fmt.Errorf("dataload: %w", err)
			}
		default:
			return nil, fmt.Errorf("dataload: hierarchy %q: unknown kind %q (want interval, suppression or levels)", h.Attribute, h.Kind)
		}
		hs[h.Attribute] = built
	}

	qi := spec.QI
	if len(qi) == 0 {
		for _, col := range schema.QuasiIdentifiers() {
			qi = append(qi, schema.Attrs[col].Name)
		}
	}
	for _, name := range qi {
		col := schema.Index(name)
		if col < 0 {
			return nil, fmt.Errorf("dataload: quasi-identifier %q not in schema", name)
		}
		if col == schema.SensitiveIndex {
			return nil, fmt.Errorf("dataload: sensitive attribute %q cannot be a quasi-identifier", name)
		}
		if _, ok := hs[name]; !ok {
			return nil, fmt.Errorf("dataload: quasi-identifier %q has no hierarchy", name)
		}
	}

	levels := spec.DefaultLevels
	if levels == nil {
		levels = bucket.Levels{}
	}
	for attr, lvl := range levels {
		h, ok := hs[attr]
		if !ok {
			return nil, fmt.Errorf("dataload: default level for %q, which has no hierarchy", attr)
		}
		if lvl < 0 || lvl >= h.Levels() {
			return nil, fmt.Errorf("dataload: default level %d for %q outside [0, %d)", lvl, attr, h.Levels())
		}
	}

	// The stored rebuild source is the spec minus its CSV: the rows live
	// in the columnar snapshot, so persisting them again as CSV text would
	// double the footprint and drift from the appended state.
	src := spec
	src.CSV = ""
	return &Bundle{
		Name:          name,
		Table:         tab,
		Hierarchies:   hs,
		QI:            append([]string(nil), qi...),
		DefaultLevels: levels,
		Source:        &SourceSpec{Kind: SourceKindSpec, Spec: &src},
	}, nil
}
