package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"

	"mhxquery"
	"mhxquery/internal/corpus"
)

const (
	numDocs     = 16
	prepUpdates = 512
)

// docInfo is what the request generators need to know about one
// generated document: enough ground truth to aim updates at nodes that
// exist and to make replace-value updates write back the same text.
type docInfo struct {
	name      string
	words     []string // the text of each <w>, in document order
	lines     int
	dmgs      int
	textBytes int
}

// prepare generates the seeded corpus, persists it under dir with
// snapshots disabled, and logs prepUpdates content-preserving updates on
// top, so every server start replays a crash-restart-sized WAL tail. The
// returned collection is still open; the caller computes expectations
// on it and then closes it.
//
// Document sizes are a seeded permutation of 16 evenly spaced sizes from
// 300 to 1200 words (50x to 200x the Boethius fragment): the seed moves
// which document is large, never the corpus total, so runs under
// different seeds do the same amount of work.
func prepare(dir string, seed uint64) ([]docInfo, *mhxquery.Collection, error) {
	coll, err := mhxquery.OpenCollection(dir, mhxquery.CollectionOptions{SnapshotEvery: -1, SnapshotBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0x6d686c6f6164))
	sizes := r.Perm(numDocs)
	docs := make([]docInfo, numDocs)
	for i := range docs {
		g := generate(seed*1000+uint64(i), 300+60*sizes[i])
		var hs []mhxquery.Hierarchy
		for _, h := range corpus.BoethiusHierarchies() {
			hs = append(hs, mhxquery.Hierarchy{Name: h, XML: g.XML[h]})
		}
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			coll.Close()
			return nil, nil, fmt.Errorf("parsing generated doc %d: %w", i, err)
		}
		info := docInfo{name: fmt.Sprintf("doc%02d", i), lines: len(g.Truth.LineSpans), dmgs: len(g.Truth.DamageSpans), textBytes: len(g.Text)}
		for _, w := range g.Truth.WordSpans {
			info.words = append(info.words, g.Text[w.Start:w.End])
		}
		docs[i] = info
		if _, err := coll.Put(info.name, d); err != nil {
			coll.Close()
			return nil, nil, err
		}
	}
	for i := 0; i < prepUpdates; i++ {
		d := &docs[i%numDocs]
		if _, _, err := coll.Update(d.name, updateSource(r, d)); err != nil {
			coll.Close()
			return nil, nil, fmt.Errorf("prep update on %s: %w", d.name, err)
		}
	}
	return docs, coll, nil
}

// generate draws a document from successive generator seeds until one
// holds exactly words/50 occurrences of "unawendendne", the expected
// count under the generator's 50-word vocabulary. Queries II.1 and III.1
// build one analyze-string overlay per occurrence, which makes them the
// costliest reads of the mix; pinning the count keeps the cost of the
// corpus the same under every seed.
func generate(seed uint64, words int) *corpus.Corpus {
	for s := seed; ; s += numDocs {
		g := corpus.Generate(corpus.Params{Seed: s, Words: words, DamageRate: 0.12})
		n := 0
		for _, w := range g.Truth.WordSpans {
			if g.Text[w.Start:w.End] == "unawendendne" {
				n++
			}
		}
		if n == (words+25)/50 {
			return g
		}
	}
}

// updateSource draws one content-preserving update of d: a rename to the
// element's own name or a replace-value with the node's own text. Each
// is a fixed point of the document's content, so every query answer
// computed before the run stays valid however many of them apply, while
// the server still logs, fsyncs, copies-on-write, patches indexes and
// bumps the revision (invalidating cached plans) for each.
func updateSource(r *rand.Rand, d *docInfo) string {
	switch p := r.IntN(100); {
	case p < 40:
		k := r.IntN(len(d.words))
		return fmt.Sprintf(`replace value of node (//w)[%d]/text() with "%s"`, k+1, d.words[k])
	case p < 70:
		return fmt.Sprintf(`rename node (//w)[%d] as "w"`, r.IntN(len(d.words))+1)
	case p < 85 || d.dmgs == 0:
		return fmt.Sprintf(`rename node (//line)[%d] as "line"`, r.IntN(d.lines)+1)
	default:
		return fmt.Sprintf(`rename node (//dmg)[%d] as "dmg"`, r.IntN(d.dmgs)+1)
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
