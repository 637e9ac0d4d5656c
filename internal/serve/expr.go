package serve

import (
	"fmt"

	"assocmine"
)

// Limits on hostile expression strings. Parsing is O(len) and the
// node/depth caps bound both the parse tree and the downstream
// inclusion-exclusion work, so a malicious request cannot make the
// decoder allocate unboundedly.
const (
	maxExprLen   = 4096
	maxExprNodes = 1024
	maxExprDepth = 64
)

// parseExpr parses the compact boolean-expression syntax used by the
// /v1/expr endpoint into an assocmine.BoolExpr. Grammar:
//
//	expr := or
//	or   := and { '|' and }
//	and  := atom { '&' atom }
//	atom := INT | 'col(' expr ')' | 'any(' expr {',' expr} ')'
//	      | 'all(' expr {',' expr} ')' | '(' expr ')'
//
// Bare integers are column ids ("3|4&5" works); the function forms
// mirror the Go API ("all(3, any(4, 5))"). Column ids must lie in
// [0, numCols). Structural rules (conjunctions under disjunctions,
// And fan-in) are enforced later by the evaluator; the parser only
// enforces syntax and the anti-hostility caps above.
func parseExpr(s string, numCols int) (assocmine.BoolExpr, error) {
	if len(s) > maxExprLen {
		return assocmine.BoolExpr{}, fmt.Errorf("expression longer than %d bytes", maxExprLen)
	}
	p := &exprParser{s: s, numCols: numCols}
	e, err := p.parseOr(0)
	if err != nil {
		return assocmine.BoolExpr{}, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return assocmine.BoolExpr{}, fmt.Errorf("unexpected %q at offset %d", p.s[p.pos], p.pos)
	}
	return e, nil
}

type exprParser struct {
	s       string
	pos     int
	nodes   int
	numCols int
}

func (p *exprParser) node() error {
	p.nodes++
	if p.nodes > maxExprNodes {
		return fmt.Errorf("expression exceeds %d nodes", maxExprNodes)
	}
	return nil
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n' || p.s[p.pos] == '\r') {
		p.pos++
	}
}

// eat consumes c if it is next (after spaces) and reports whether it did.
func (p *exprParser) eat(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *exprParser) parseOr(depth int) (assocmine.BoolExpr, error) {
	if depth > maxExprDepth {
		return assocmine.BoolExpr{}, fmt.Errorf("expression deeper than %d levels", maxExprDepth)
	}
	first, err := p.parseAnd(depth + 1)
	if err != nil {
		return assocmine.BoolExpr{}, err
	}
	args := []assocmine.BoolExpr{first}
	for p.eat('|') {
		next, err := p.parseAnd(depth + 1)
		if err != nil {
			return assocmine.BoolExpr{}, err
		}
		args = append(args, next)
	}
	if len(args) == 1 {
		return first, nil
	}
	if err := p.node(); err != nil {
		return assocmine.BoolExpr{}, err
	}
	return assocmine.AnyOf(args...), nil
}

func (p *exprParser) parseAnd(depth int) (assocmine.BoolExpr, error) {
	if depth > maxExprDepth {
		return assocmine.BoolExpr{}, fmt.Errorf("expression deeper than %d levels", maxExprDepth)
	}
	first, err := p.parseAtom(depth + 1)
	if err != nil {
		return assocmine.BoolExpr{}, err
	}
	args := []assocmine.BoolExpr{first}
	for p.eat('&') {
		next, err := p.parseAtom(depth + 1)
		if err != nil {
			return assocmine.BoolExpr{}, err
		}
		args = append(args, next)
	}
	if len(args) == 1 {
		return first, nil
	}
	if err := p.node(); err != nil {
		return assocmine.BoolExpr{}, err
	}
	return assocmine.AllOf(args...), nil
}

func (p *exprParser) parseAtom(depth int) (assocmine.BoolExpr, error) {
	if depth > maxExprDepth {
		return assocmine.BoolExpr{}, fmt.Errorf("expression deeper than %d levels", maxExprDepth)
	}
	p.skipSpace()
	if p.pos >= len(p.s) {
		return assocmine.BoolExpr{}, fmt.Errorf("unexpected end of expression at offset %d", p.pos)
	}
	switch c := p.s[p.pos]; {
	case c >= '0' && c <= '9':
		return p.parseCol()
	case c == '(':
		p.pos++
		e, err := p.parseOr(depth + 1)
		if err != nil {
			return assocmine.BoolExpr{}, err
		}
		if !p.eat(')') {
			return assocmine.BoolExpr{}, fmt.Errorf("missing ')' at offset %d", p.pos)
		}
		return e, nil
	default:
		name := p.parseIdent()
		switch name {
		case "col":
			if !p.eat('(') {
				return assocmine.BoolExpr{}, fmt.Errorf("col needs '(' at offset %d", p.pos)
			}
			e, err := p.parseCol()
			if err != nil {
				return assocmine.BoolExpr{}, err
			}
			if !p.eat(')') {
				return assocmine.BoolExpr{}, fmt.Errorf("missing ')' at offset %d", p.pos)
			}
			return e, nil
		case "any", "all":
			if !p.eat('(') {
				return assocmine.BoolExpr{}, fmt.Errorf("%s needs '(' at offset %d", name, p.pos)
			}
			var args []assocmine.BoolExpr
			for {
				e, err := p.parseOr(depth + 1)
				if err != nil {
					return assocmine.BoolExpr{}, err
				}
				args = append(args, e)
				if p.eat(',') {
					continue
				}
				break
			}
			if !p.eat(')') {
				return assocmine.BoolExpr{}, fmt.Errorf("missing ')' at offset %d", p.pos)
			}
			if err := p.node(); err != nil {
				return assocmine.BoolExpr{}, err
			}
			if name == "any" {
				return assocmine.AnyOf(args...), nil
			}
			return assocmine.AllOf(args...), nil
		case "":
			return assocmine.BoolExpr{}, fmt.Errorf("unexpected %q at offset %d", c, p.pos)
		default:
			return assocmine.BoolExpr{}, fmt.Errorf("unknown function %q (want col, any or all)", name)
		}
	}
}

func (p *exprParser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c >= 'a' && c <= 'z' {
			p.pos++
			continue
		}
		break
	}
	return p.s[start:p.pos]
}

func (p *exprParser) parseCol() (assocmine.BoolExpr, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return assocmine.BoolExpr{}, fmt.Errorf("expected column id at offset %d", start)
	}
	if p.pos-start > 9 {
		return assocmine.BoolExpr{}, fmt.Errorf("column id at offset %d too long", start)
	}
	n := 0
	for _, c := range []byte(p.s[start:p.pos]) {
		n = n*10 + int(c-'0')
	}
	if n >= p.numCols {
		return assocmine.BoolExpr{}, fmt.Errorf("column %d out of range [0,%d)", n, p.numCols)
	}
	if err := p.node(); err != nil {
		return assocmine.BoolExpr{}, err
	}
	return assocmine.Col(n), nil
}
