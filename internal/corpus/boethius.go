// Package corpus provides the paper's running example (the Figure 1
// fragment of King Alfred's Boethius, Cotton Otho A.vi) and a seeded
// synthetic manuscript generator used by tests and benchmarks.
//
// The Figure 1 encodings in the paper are typeset loosely (inconsistent
// whitespace between the four encodings); the fixture below uses the
// canonical base text S with single spaces, so that all four encodings
// are exactly aligned.
package corpus

import (
	"fmt"

	"mhxquery/internal/core"
	"mhxquery/internal/xmlparse"
)

// BoethiusText is the base text S of the Figure 1 manuscript fragment.
const BoethiusText = "gesceaftum unawendendne singallice sibbe gecynde þa"

// The four Figure 1 encodings: physical manuscript organization (<line>),
// document structure (<vline>, <w>), editorial restorations (<res>) and
// manuscript condition (<dmg>).
const (
	BoethiusPhysical    = `<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>`
	BoethiusStructure   = `<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>`
	BoethiusRestoration = `<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>`
	BoethiusDamage      = `<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>`
)

// BoethiusHierarchies returns the hierarchy names of the fixture in
// document order.
func BoethiusHierarchies() []string {
	return []string{"physical", "structure", "restoration", "damage"}
}

// BoethiusXML returns the four encodings keyed by hierarchy name.
func BoethiusXML() map[string]string {
	return map[string]string{
		"physical":    BoethiusPhysical,
		"structure":   BoethiusStructure,
		"restoration": BoethiusRestoration,
		"damage":      BoethiusDamage,
	}
}

// BoethiusTrees parses the four encodings.
func BoethiusTrees() ([]core.NamedTree, error) {
	xml := BoethiusXML()
	var trees []core.NamedTree
	for _, name := range BoethiusHierarchies() {
		root, err := xmlparse.Parse(xml[name], xmlparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		trees = append(trees, core.NamedTree{Name: name, Root: root})
	}
	return trees, nil
}

// BoethiusDocument builds the KyGODDAG of Figure 2.
func BoethiusDocument() (*core.Document, error) {
	trees, err := BoethiusTrees()
	if err != nil {
		return nil, err
	}
	return core.Build(trees)
}

// MustBoethius is BoethiusDocument panicking on error, for tests and
// examples.
func MustBoethius() *core.Document {
	d, err := BoethiusDocument()
	if err != nil {
		panic(err)
	}
	return d
}
