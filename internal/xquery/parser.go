package xquery

import (
	"strings"
	"unicode/utf8"

	"mhxquery/internal/core"
	"mhxquery/internal/xmlparse"
)

// parser is a hand-written recursive-descent parser for the extended
// XQuery grammar. Direct element constructors are scanned in raw mode
// straight from the source (the standard technique for XQuery's
// context-dependent lexing); everything else uses the token stream.
// Errors propagate as lexPanic and are recovered in Compile.
type parser struct {
	src   string
	lex   *lexer
	tok   token
	depth int
}

// maxParseDepth bounds expression nesting so that pathological inputs
// fail with a clean error instead of exhausting the stack.
const maxParseDepth = 10000

func (p *parser) enter() {
	p.depth++
	if p.depth > maxParseDepth {
		p.fail("expression nesting exceeds %d levels", maxParseDepth)
	}
}

func (p *parser) leave() { p.depth-- }

func parseQuery(src string) (e expr, err error) {
	defer func() {
		if r := recover(); r != nil {
			lp, ok := r.(lexPanic)
			if !ok {
				panic(r)
			}
			e, err = nil, lp.err
		}
	}()
	p := &parser{src: src, lex: &lexer{src: src}}
	p.advance()
	e = p.parseExpr()
	if p.tok.kind != tEOF {
		p.fail("unexpected %s", p.tok.kind)
	}
	return e, nil
}

func (p *parser) advance() { p.tok = p.lex.next() }

func (p *parser) fail(format string, args ...any) {
	lexErr(p.tok.start, format, args...)
}

func (p *parser) expect(k tokKind) token {
	if p.tok.kind != k {
		p.fail("expected %s, found %s", k, p.tok.kind)
	}
	t := p.tok
	p.advance()
	return t
}

// peek returns the token after the current one without consuming it.
func (p *parser) peek() token {
	save := p.lex.pos
	t := p.lex.next()
	p.lex.pos = save
	return t
}

func (p *parser) isName(s string) bool { return p.tok.kind == tName && p.tok.text == s }

func (p *parser) eatName(s string) bool {
	if p.isName(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectName(s string) {
	if !p.eatName(s) {
		p.fail("expected %q", s)
	}
}

// ---- expressions --------------------------------------------------------

func (p *parser) parseExpr() expr {
	first := p.parseExprSingle()
	if p.tok.kind != tComma {
		return first
	}
	items := []expr{first}
	for p.tok.kind == tComma {
		p.advance()
		items = append(items, p.parseExprSingle())
	}
	return &seqExpr{items: items}
}

func (p *parser) parseExprSingle() expr {
	p.enter()
	defer p.leave()
	if p.tok.kind == tName {
		switch p.tok.text {
		case "for", "let":
			if p.peek().kind == tVar {
				return p.parseFLWOR()
			}
		case "some", "every":
			if p.peek().kind == tVar {
				return p.parseQuantified()
			}
		case "if":
			if p.peek().kind == tLParen {
				return p.parseIf()
			}
		}
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() expr {
	f := &flworExpr{}
	for {
		if p.isName("for") && p.peek().kind == tVar {
			p.advance()
			for {
				name := p.expect(tVar).text
				posName := ""
				if p.eatName("at") {
					posName = p.expect(tVar).text
				}
				p.expectName("in")
				src := p.parseExprSingle()
				f.clauses = append(f.clauses, flworClause{kind: clauseFor, name: name, posName: posName, src: src})
				if p.tok.kind == tComma && p.peek().kind == tVar {
					p.advance()
					continue
				}
				break
			}
			continue
		}
		if p.isName("let") && p.peek().kind == tVar {
			p.advance()
			for {
				name := p.expect(tVar).text
				p.expect(tAssign)
				src := p.parseExprSingle()
				f.clauses = append(f.clauses, flworClause{kind: clauseLet, name: name, src: src})
				if p.tok.kind == tComma && p.peek().kind == tVar {
					p.advance()
					continue
				}
				break
			}
			continue
		}
		break
	}
	if len(f.clauses) == 0 {
		p.fail("FLWOR expression without for/let clause")
	}
	if p.eatName("where") {
		f.clauses = append(f.clauses, flworClause{kind: clauseWhere, src: p.parseExprSingle()})
	}
	if p.isName("stable") || (p.isName("order") && p.peek().kind == tName && p.peek().text == "by") {
		p.eatName("stable")
		p.expectName("order")
		p.expectName("by")
		for {
			spec := orderSpec{key: p.parseExprSingle()}
			if p.eatName("descending") {
				spec.descending = true
			} else {
				p.eatName("ascending")
			}
			if p.eatName("empty") {
				if p.eatName("greatest") {
					spec.emptyGreatest = true
				} else {
					p.expectName("least")
				}
			}
			f.order = append(f.order, spec)
			if p.tok.kind != tComma {
				break
			}
			p.advance()
		}
	}
	p.expectName("return")
	f.ret = p.parseExprSingle()
	return f
}

func (p *parser) parseQuantified() expr {
	q := &quantExpr{every: p.tok.text == "every"}
	p.advance()
	for {
		q.names = append(q.names, p.expect(tVar).text)
		p.expectName("in")
		q.srcs = append(q.srcs, p.parseExprSingle())
		if p.tok.kind != tComma {
			break
		}
		p.advance()
	}
	p.expectName("satisfies")
	q.sat = p.parseExprSingle()
	return q
}

func (p *parser) parseIf() expr {
	p.advance() // "if"
	p.expect(tLParen)
	cond := p.parseExpr()
	p.expect(tRParen)
	p.expectName("then")
	then := p.parseExprSingle()
	p.expectName("else")
	els := p.parseExprSingle()
	return &ifExpr{cond: cond, then: then, els: els}
}

func (p *parser) parseOr() expr {
	a := p.parseAnd()
	for p.isName("or") {
		p.advance()
		a = &orExpr{a: a, b: p.parseAnd()}
	}
	return a
}

func (p *parser) parseAnd() expr {
	a := p.parseComparison()
	for p.isName("and") {
		p.advance()
		a = &andExpr{a: a, b: p.parseComparison()}
	}
	return a
}

func (p *parser) parseComparison() expr {
	a := p.parseRange()
	var op string
	kind := cmpGeneral
	switch p.tok.kind {
	case tEq:
		op = "="
	case tNe:
		op = "!="
	case tLt:
		op = "<"
	case tLe:
		op = "<="
	case tGt:
		op = ">"
	case tGe:
		op = ">="
	case tLtLt:
		op, kind = "<<", cmpNode
	case tGtGt:
		op, kind = ">>", cmpNode
	case tName:
		switch p.tok.text {
		case "eq", "ne", "lt", "le", "gt", "ge":
			op, kind = p.tok.text, cmpValue
		case "is":
			op, kind = "is", cmpNode
		default:
			return a
		}
	default:
		return a
	}
	p.advance()
	return &cmpExpr{op: op, kind: kind, a: a, b: p.parseRange()}
}

func (p *parser) parseRange() expr {
	a := p.parseAdditive()
	if p.isName("to") {
		p.advance()
		return &rangeExpr{lo: a, hi: p.parseAdditive()}
	}
	return a
}

func (p *parser) parseAdditive() expr {
	a := p.parseMultiplicative()
	for {
		switch p.tok.kind {
		case tPlus:
			p.advance()
			a = &arithExpr{op: "+", a: a, b: p.parseMultiplicative()}
		case tMinus:
			p.advance()
			a = &arithExpr{op: "-", a: a, b: p.parseMultiplicative()}
		default:
			return a
		}
	}
}

func (p *parser) parseMultiplicative() expr {
	a := p.parseUnion()
	for {
		switch {
		case p.tok.kind == tStar:
			p.advance()
			a = &arithExpr{op: "*", a: a, b: p.parseUnion()}
		case p.isName("div"):
			p.advance()
			a = &arithExpr{op: "div", a: a, b: p.parseUnion()}
		case p.isName("idiv"):
			p.advance()
			a = &arithExpr{op: "idiv", a: a, b: p.parseUnion()}
		case p.isName("mod"):
			p.advance()
			a = &arithExpr{op: "mod", a: a, b: p.parseUnion()}
		default:
			return a
		}
	}
}

func (p *parser) parseUnion() expr {
	a := p.parseIntersectExcept()
	for p.tok.kind == tPipe || p.isName("union") {
		p.advance()
		a = &unionExpr{a: a, b: p.parseIntersectExcept()}
	}
	return a
}

func (p *parser) parseIntersectExcept() expr {
	a := p.parseUnary()
	for p.isName("intersect") || p.isName("except") {
		except := p.tok.text == "except"
		p.advance()
		a = &intersectExpr{except: except, a: a, b: p.parseUnary()}
	}
	return a
}

func (p *parser) parseUnary() expr {
	neg := false
	for p.tok.kind == tMinus || p.tok.kind == tPlus {
		if p.tok.kind == tMinus {
			neg = !neg
		}
		p.advance()
	}
	e := p.parsePathExpr()
	if neg {
		return &unaryExpr{x: e}
	}
	return e
}

// ---- paths ---------------------------------------------------------------

func descOrSelfStep() *step {
	return &step{axis: core.AxisDescendantOrSelf, test: nodeTest{kind: testNode}}
}

// isComputedCtor reports whether the current token begins a computed
// constructor: one of the keywords followed by '{' (computed name or
// text/comment body) or by a name that is itself followed by '{'.
func (p *parser) isComputedCtor() bool {
	if p.tok.kind != tName {
		return false
	}
	switch p.tok.text {
	case "element", "attribute", "text", "comment":
	default:
		return false
	}
	nt := p.peek()
	if nt.kind == tLBrace {
		return true
	}
	if nt.kind != tName || p.tok.text == "text" || p.tok.text == "comment" {
		return false
	}
	// "element name {" — look one token further.
	save := p.lex.pos
	p.lex.pos = nt.end
	after := p.lex.next()
	p.lex.pos = save
	return after.kind == tLBrace
}

func (p *parser) parseComputedCtor() expr {
	kind := p.tok.text[0]
	p.advance()
	e := &compCtorExpr{kind: kind}
	if p.tok.kind == tName {
		e.name = p.tok.text
		p.advance()
	} else {
		p.expect(tLBrace)
		e.nameExpr = p.parseExpr()
		p.expect(tRBrace)
	}
	if kind == 't' || kind == 'c' {
		// text {E} / comment {E}: the first brace pair was the content.
		if e.nameExpr != nil {
			e.content, e.nameExpr = e.nameExpr, nil
			return e
		}
		p.fail("%s constructor requires enclosed content", string(kind))
	}
	p.expect(tLBrace)
	if p.tok.kind != tRBrace {
		e.content = p.parseExpr()
	}
	p.expect(tRBrace)
	return e
}

func (p *parser) parsePathExpr() expr {
	if p.isComputedCtor() {
		return p.parseComputedCtor()
	}
	switch p.tok.kind {
	case tSlash:
		p.advance()
		if !p.startsStep() {
			return &rootExpr{}
		}
		pe := &pathExpr{absolute: true, steps: []*step{p.parseOneStep()}}
		p.parseMoreSteps(pe)
		return pe
	case tSlashSlash:
		p.advance()
		if !p.startsStep() {
			p.fail("expected step after '//'")
		}
		pe := &pathExpr{absolute: true, steps: []*step{descOrSelfStep(), p.parseOneStep()}}
		p.parseMoreSteps(pe)
		return pe
	}
	// A function call at expression start is a primary, not a step: it
	// must see the caller's context position/size (e.g. position() in a
	// predicate). As a step after '/' it is a mapping step instead.
	isCall := p.tok.kind == tName && p.peek().kind == tLParen &&
		!isKindTestName(p.tok.text) && builtins[canonName(p.tok.text)] != nil
	if p.startsStep() && !isCall {
		pe := &pathExpr{steps: []*step{p.parseOneStep()}}
		p.parseMoreSteps(pe)
		return pe
	}
	prim := p.parsePostfix()
	if p.tok.kind == tSlash || p.tok.kind == tSlashSlash {
		pe := &pathExpr{start: prim}
		p.parseMoreSteps(pe)
		return pe
	}
	return prim
}

func (p *parser) parseMoreSteps(pe *pathExpr) {
	for {
		switch p.tok.kind {
		case tSlash:
			p.advance()
			pe.steps = append(pe.steps, p.parseOneStep())
		case tSlashSlash:
			p.advance()
			pe.steps = append(pe.steps, descOrSelfStep(), p.parseOneStep())
		default:
			return
		}
	}
}

// startsStep reports whether the current token can begin an axis step.
func (p *parser) startsStep() bool {
	switch p.tok.kind {
	case tAt, tDotDot, tStar:
		return true
	case tName:
		return true
	}
	return false
}

func isKindTestName(s string) bool {
	switch s {
	case "text", "node", "comment", "processing-instruction", "leaf":
		return true
	}
	return false
}

// parseOneStep parses an axis step, or a primary-expression step (e.g.
// "$x/string(.)") when the name turns out to be a function call.
func (p *parser) parseOneStep() *step {
	switch p.tok.kind {
	case tAt:
		p.advance()
		return p.finishStep(core.AxisAttribute, p.parseNodeTest())
	case tDotDot:
		p.advance()
		return p.finishStep(core.AxisParent, nodeTest{kind: testNode})
	case tDot:
		p.advance()
		return p.finishStep(core.AxisSelf, nodeTest{kind: testNode})
	case tStar:
		return p.finishStep(core.AxisChild, p.parseNodeTest())
	case tName:
		if p.peek().kind == tColonColon {
			ax, ok := core.AxisByName(p.tok.text)
			if !ok {
				p.fail("unknown axis %q", p.tok.text)
			}
			p.advance()
			p.advance()
			if p.tok.kind == tStar || p.tok.kind == tName {
				return p.finishStep(ax, p.parseNodeTest())
			}
			p.fail("expected node test after %s::", ax)
		}
		if p.peek().kind == tLParen {
			if isKindTestName(p.tok.text) {
				return p.finishStep(core.AxisChild, p.parseNodeTest())
			}
			if _, isFn := builtins[canonName(p.tok.text)]; isFn {
				return &step{prim: p.parsePostfix()}
			}
			// Hierarchy-qualified name test: name('h1,h2').
			return p.finishStep(core.AxisChild, p.parseNodeTest())
		}
		return p.finishStep(core.AxisChild, p.parseNodeTest())
	}
	return &step{prim: p.parsePostfix()}
}

func (p *parser) finishStep(ax core.Axis, t nodeTest) *step {
	s := &step{axis: ax, test: t}
	for p.tok.kind == tLBracket {
		p.advance()
		s.preds = append(s.preds, p.parseExpr())
		p.expect(tRBracket)
	}
	return s
}

// parseNodeTest parses a name test (optionally hierarchy-qualified), a
// wildcard (optionally hierarchy-qualified) or a kind test per
// Definition 2: text(H), node(H), *(H), leaf(), comment(), pi().
func (p *parser) parseNodeTest() nodeTest {
	switch p.tok.kind {
	case tStar:
		p.advance()
		return nodeTest{kind: testStar, hiers: p.parseOptHiers()}
	case tName:
		name := p.tok.text
		if isKindTestName(name) && p.peek().kind == tLParen {
			p.advance()
			p.advance()
			var hiers []string
			piName := ""
			switch p.tok.kind {
			case tString:
				hiers = splitHiers(p.tok.text)
				if len(hiers) == 0 {
					p.fail("empty hierarchy list in %s() test", name)
				}
				p.advance()
			case tName:
				if name == "processing-instruction" {
					piName = p.tok.text
					p.advance()
				}
			}
			p.expect(tRParen)
			switch name {
			case "text":
				return nodeTest{kind: testText, hiers: hiers}
			case "node":
				return nodeTest{kind: testNode, hiers: hiers}
			case "comment":
				return nodeTest{kind: testComment}
			case "processing-instruction":
				return nodeTest{kind: testPI, name: piName}
			case "leaf":
				return nodeTest{kind: testLeaf, hiers: hiers}
			}
		}
		p.advance()
		return nodeTest{kind: testName, name: name, hiers: p.parseOptHiers()}
	}
	p.fail("expected node test, found %s", p.tok.kind)
	return nodeTest{}
}

func (p *parser) parseOptHiers() []string {
	if p.tok.kind != tLParen {
		return nil
	}
	p.advance()
	s := p.expect(tString).text
	p.expect(tRParen)
	hiers := splitHiers(s)
	if len(hiers) == 0 {
		p.fail("empty hierarchy list in node test")
	}
	return hiers
}

func splitHiers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ---- primaries -----------------------------------------------------------

func (p *parser) parsePostfix() expr {
	e := p.parsePrimary()
	var preds []expr
	for p.tok.kind == tLBracket {
		p.advance()
		preds = append(preds, p.parseExpr())
		p.expect(tRBracket)
	}
	if preds != nil {
		return &filterExpr{base: e, preds: preds}
	}
	return e
}

func (p *parser) parsePrimary() expr {
	switch p.tok.kind {
	case tString:
		v := p.tok.text
		p.advance()
		return newLiteral(v)
	case tNumber:
		v := p.tok.num
		p.advance()
		return newLiteral(v)
	case tVar:
		name := p.tok.text
		p.advance()
		return &varExpr{name: name}
	case tDot:
		p.advance()
		return &contextItemExpr{}
	case tLParen:
		p.advance()
		if p.tok.kind == tRParen {
			p.advance()
			return &seqExpr{}
		}
		e := p.parseExpr()
		p.expect(tRParen)
		return e
	case tLt:
		if r, sz := utf8.DecodeRuneInString(p.src[p.tok.end:]); sz > 0 && xmlparse.IsNameStart(r) {
			return p.parseDirElem()
		}
		p.fail("unexpected '<' (not a constructor)")
	case tName:
		if p.peek().kind == tLParen {
			return p.parseFunctionCall()
		}
	}
	p.fail("unexpected %s", p.tok.kind)
	return nil
}

// canonName strips the fn: prefix; the paper drops namespaces and so do we.
func canonName(name string) string { return strings.TrimPrefix(name, "fn:") }

func (p *parser) parseFunctionCall() expr {
	raw := p.tok.text
	name := canonName(raw)
	fn, ok := builtins[name]
	if !ok {
		p.fail("unknown function %s()", raw)
	}
	p.advance()
	p.expect(tLParen)
	var args []expr
	if p.tok.kind != tRParen {
		args = append(args, p.parseExprSingle())
		for p.tok.kind == tComma {
			p.advance()
			args = append(args, p.parseExprSingle())
		}
	}
	p.expect(tRParen)
	if len(args) < fn.min || (fn.max >= 0 && len(args) > fn.max) {
		p.fail("%s() expects %d..%d arguments, got %d", name, fn.min, fn.max, len(args))
	}
	return &callExpr{name: name, fn: fn, args: args}
}

// ---- direct element constructors (raw scanning) --------------------------

func (p *parser) parseDirElem() expr {
	e, pos := p.rawElement(p.tok.end)
	p.lex.pos = pos
	p.advance()
	return e
}

func skipWS(src string, pos int) int {
	for pos < len(src) {
		switch src[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

func scanXMLName(src string, pos int) (string, int, bool) {
	r, sz := utf8.DecodeRuneInString(src[pos:])
	if sz == 0 || !xmlparse.IsNameStart(r) {
		return "", pos, false
	}
	end := pos + sz
	for end < len(src) {
		r, sz = utf8.DecodeRuneInString(src[end:])
		if !xmlparse.IsNameChar(r) {
			break
		}
		end += sz
	}
	return src[pos:end], end, true
}

func decodeEntityAt(src string, pos int) (string, int) {
	semi := strings.IndexByte(src[pos:], ';')
	if semi < 0 || semi > 32 {
		lexErr(pos, "unterminated entity reference in constructor")
	}
	ref := src[pos+1 : pos+semi]
	end := pos + semi + 1
	switch ref {
	case "lt":
		return "<", end
	case "gt":
		return ">", end
	case "amp":
		return "&", end
	case "apos":
		return "'", end
	case "quot":
		return `"`, end
	}
	if strings.HasPrefix(ref, "#") {
		num := ref[1:]
		base := 10
		if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
			num, base = num[1:], 16
		}
		var v uint64
		for _, c := range num {
			d := uint64(0)
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				lexErr(pos, "invalid character reference &%s;", ref)
			}
			v = v*uint64(base) + d
		}
		if v == 0 || !utf8.ValidRune(rune(v)) {
			lexErr(pos, "invalid character reference &%s;", ref)
		}
		return string(rune(v)), end
	}
	lexErr(pos, "unknown entity &%s;", ref)
	return "", end
}

// rawElement scans a direct element constructor starting just after '<'.
func (p *parser) rawElement(pos int) (*elemExpr, int) {
	name, pos, ok := scanXMLName(p.src, pos)
	if !ok {
		lexErr(pos, "expected element name in constructor")
	}
	el := &elemExpr{name: name}
	// Attributes.
	for {
		pos = skipWS(p.src, pos)
		if pos >= len(p.src) {
			lexErr(pos, "unterminated constructor <%s>", name)
		}
		if p.src[pos] == '/' {
			if pos+1 >= len(p.src) || p.src[pos+1] != '>' {
				lexErr(pos, "expected '/>' in constructor")
			}
			return el, pos + 2
		}
		if p.src[pos] == '>' {
			pos++
			break
		}
		aname, npos, ok := scanXMLName(p.src, pos)
		if !ok {
			lexErr(pos, "expected attribute name in constructor <%s>", name)
		}
		pos = skipWS(p.src, npos)
		if pos >= len(p.src) || p.src[pos] != '=' {
			lexErr(pos, "expected '=' after attribute %q", aname)
		}
		pos = skipWS(p.src, pos+1)
		tpl, npos2 := p.rawAttrValue(pos)
		tpl.name = aname
		el.attrs = append(el.attrs, tpl)
		pos = npos2
	}
	// Content.
	var text strings.Builder
	flush := func() {
		if text.Len() == 0 {
			return
		}
		s := text.String()
		text.Reset()
		// Boundary whitespace is stripped (XQuery default boundary-space).
		if strings.TrimLeft(s, " \t\n\r") == "" {
			return
		}
		el.content = append(el.content, &rawTextExpr{s: s})
	}
	for {
		if pos >= len(p.src) {
			lexErr(pos, "unterminated element constructor <%s>", name)
		}
		c := p.src[pos]
		switch {
		case c == '<':
			rest := p.src[pos:]
			switch {
			case strings.HasPrefix(rest, "</"):
				flush()
				ename, npos, ok := scanXMLName(p.src, pos+2)
				if !ok || ename != name {
					lexErr(pos, "mismatched end tag in constructor <%s>", name)
				}
				npos = skipWS(p.src, npos)
				if npos >= len(p.src) || p.src[npos] != '>' {
					lexErr(npos, "expected '>' in constructor end tag")
				}
				return el, npos + 1
			case strings.HasPrefix(rest, "<!--"):
				end := strings.Index(rest, "-->")
				if end < 0 {
					lexErr(pos, "unterminated comment in constructor")
				}
				pos += end + len("-->")
			case strings.HasPrefix(rest, "<![CDATA["):
				end := strings.Index(rest, "]]>")
				if end < 0 {
					lexErr(pos, "unterminated CDATA in constructor")
				}
				text.WriteString(rest[len("<![CDATA["):end])
				pos += end + len("]]>")
			default:
				flush()
				child, npos := p.rawElement(pos + 1)
				el.content = append(el.content, child)
				pos = npos
			}
		case c == '{':
			if strings.HasPrefix(p.src[pos:], "{{") {
				text.WriteByte('{')
				pos += 2
				continue
			}
			flush()
			e, npos := p.parseEnclosed(pos + 1)
			el.content = append(el.content, e)
			pos = npos
		case c == '}':
			if strings.HasPrefix(p.src[pos:], "}}") {
				text.WriteByte('}')
				pos += 2
				continue
			}
			lexErr(pos, "bare '}' in constructor content (write '}}')")
		case c == '&':
			s, npos := decodeEntityAt(p.src, pos)
			text.WriteString(s)
			pos = npos
		default:
			text.WriteByte(c)
			pos++
		}
	}
}

// rawAttrValue scans a quoted attribute value template at pos.
func (p *parser) rawAttrValue(pos int) (attrTpl, int) {
	if pos >= len(p.src) || (p.src[pos] != '"' && p.src[pos] != '\'') {
		lexErr(pos, "expected quoted attribute value in constructor")
	}
	quote := p.src[pos]
	pos++
	var tpl attrTpl
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			tpl.parts = append(tpl.parts, &rawTextExpr{s: text.String()})
			text.Reset()
		}
	}
	for {
		if pos >= len(p.src) {
			lexErr(pos, "unterminated attribute value in constructor")
		}
		c := p.src[pos]
		switch {
		case c == quote:
			if pos+1 < len(p.src) && p.src[pos+1] == quote {
				text.WriteByte(quote)
				pos += 2
				continue
			}
			flush()
			return tpl, pos + 1
		case c == '{':
			if strings.HasPrefix(p.src[pos:], "{{") {
				text.WriteByte('{')
				pos += 2
				continue
			}
			flush()
			e, npos := p.parseEnclosed(pos + 1)
			tpl.parts = append(tpl.parts, e)
			pos = npos
		case c == '}':
			if strings.HasPrefix(p.src[pos:], "}}") {
				text.WriteByte('}')
				pos += 2
				continue
			}
			lexErr(pos, "bare '}' in attribute value template")
		case c == '&':
			s, npos := decodeEntityAt(p.src, pos)
			text.WriteString(s)
			pos = npos
		default:
			text.WriteByte(c)
			pos++
		}
	}
}

// parseEnclosed parses an enclosed expression "{ Expr }" whose '{' has
// already been consumed; pos is the offset just after it. It returns the
// expression and the offset just after the closing '}'.
func (p *parser) parseEnclosed(pos int) (expr, int) {
	p.lex.pos = pos
	p.advance()
	e := p.parseExpr()
	if p.tok.kind != tRBrace {
		p.fail("expected '}' after enclosed expression")
	}
	return e, p.tok.end
}
