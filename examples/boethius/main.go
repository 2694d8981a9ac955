// Boethius: the paper's running example, end to end.
//
// This example reproduces Section 2 and Section 4 of the paper on the
// Cotton Otho A.vi fragment (Figure 1): it builds the KyGODDAG from the
// four encodings — physical lines, verse structure, editorial
// restorations, damage — prints the Figure 2 structure, and runs every
// query of the paper, comparing against the printed outputs.
//
// Run: go run ./examples/boethius
package main

import (
	"fmt"
	"log"

	"mhxquery"
)

// The four Figure 1 encodings of the same manuscript text, with the
// canonical single-space base text of internal/corpus/boethius.go.
const (
	physical    = `<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>`
	structure   = `<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>`
	restoration = `<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>`
	damage      = `<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>`
)

func main() {
	doc, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "physical", XML: physical},
		mhxquery.Hierarchy{Name: "structure", XML: structure},
		mhxquery.Hierarchy{Name: "restoration", XML: restoration},
		mhxquery.Hierarchy{Name: "damage", XML: damage},
	)
	if err != nil {
		log.Fatal(err)
	}

	st := doc.Stats()
	fmt.Printf("KyGODDAG: %d hierarchies, %d elements, %d leaves (Figure 2)\n\n",
		st.Hierarchies, st.Elements, st.Leaves)
	fmt.Println(doc.LeafTable())

	show := func(title, query string) {
		fmt.Printf("--- %s ---\n", title)
		out, err := doc.QueryString(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
		fmt.Println()
	}

	show("Query I.1: lines containing the word 'singallice'",
		`for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`)

	show("Query I.2: lines with damaged words, damaged words highlighted",
		`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]) then <b>{$leaf}</b> else $leaf
 , <br/> )`)

	show("Example 1: analyze-string with an XML-fragment pattern",
		`for $w in /descendant::w[string(.) = 'unawendendne']
return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`)

	show("Query II.1: words containing 'unawe', match highlighted",
		`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`)

	show("Query III.1: matches bold, restored matches also italic",
		`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`)

	// Beyond the paper: a structural census in one query.
	show("Census: damage per verse line",
		`for $v in /descendant::vline
return <verse n="{count($v/preceding-sibling::vline) + 1}"
  words="{count($v/xdescendant::w)}"
  damaged="{count($v/xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])}"/>`)
}
