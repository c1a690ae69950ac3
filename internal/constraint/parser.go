package constraint

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"dualcdb/internal/geom"
)

// This file implements a small textual syntax for generalized tuples:
//
//	tuple      := constraint { ("&&" | "," | "and") constraint }
//	constraint := linexpr cmp linexpr
//	cmp        := "<=" | ">=" | "=" | "==" | "<" | ">"
//	linexpr    := ["+"|"-"] term { ("+"|"-") term }
//	term       := number ["*"] [var] | var
//	var        := "x" | "y" | "z" | "w" | "x1" .. "x9"
//
// Examples: "x >= 0 && y >= 0 && x + y <= 4",  "y = 2x + 1",
// "3*x1 - x2 <= 5, x2 >= 1".
//
// Equalities expand into two opposite inequalities (Section 2 of the
// paper); strict comparisons are treated as their closed counterparts
// (the paper's footnote 2 notes the extension to strict operators is
// straightforward — for the index structures only closed predicates
// matter, since the stored surface values are identical).

var varNames = []string{"x", "y", "z", "w"}

// varIndex resolves a variable token to a zero-based coordinate index.
func varIndex(name string, dim int) (int, error) {
	for i, v := range varNames {
		if name == v && i < dim {
			return i, nil
		}
	}
	if len(name) >= 2 && name[0] == 'x' {
		if n, err := strconv.Atoi(name[1:]); err == nil && n >= 1 && n <= dim {
			return n - 1, nil
		}
	}
	return 0, fmt.Errorf("constraint: unknown variable %q in dimension %d", name, dim)
}

// varName renders the coordinate index as a variable token.
func varName(i, dim int) string {
	if dim <= len(varNames) {
		return varNames[i]
	}
	return fmt.Sprintf("x%d", i+1)
}

type token struct {
	kind rune // 'n' number, 'v' var, or the literal punctuation rune
	text string
	num  float64
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '+' || c == '-' || c == '*' || c == ',':
			toks = append(toks, token{kind: c, text: string(c)})
			i++
		case c == '&':
			if i+1 < len(s) && s[i+1] == '&' {
				toks = append(toks, token{kind: ',', text: "&&"})
				i += 2
			} else {
				return nil, fmt.Errorf("constraint: stray '&' at offset %d", i)
			}
		case c == '<' || c == '>' || c == '=':
			op := string(c)
			if i+1 < len(s) && s[i+1] == '=' {
				op += "="
				i++
			}
			i++
			toks = append(toks, token{kind: 'c', text: op})
		case unicode.IsDigit(c) || c == '.':
			j := i
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
				((s[j] == '+' || s[j] == '-') && j > i && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			n, err := strconv.ParseFloat(s[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("constraint: bad number %q: %v", s[i:j], err)
			}
			toks = append(toks, token{kind: 'n', text: s[i:j], num: n})
			i = j
		case unicode.IsLetter(c):
			j := i
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j]))) {
				j++
			}
			word := s[i:j]
			if word == "and" || word == "AND" {
				toks = append(toks, token{kind: ',', text: word})
			} else {
				toks = append(toks, token{kind: 'v', text: word})
			}
			i = j
		default:
			return nil, fmt.Errorf("constraint: unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
	dim  int
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

// linExpr parses a linear expression, returning per-variable coefficients
// and the constant term.
func (p *parser) linExpr() ([]float64, float64, error) {
	coef := make([]float64, p.dim)
	var c float64
	sign := 1.0
	expectTerm := true
	for {
		t, ok := p.peek()
		if !ok || t.kind == ',' || t.kind == 'c' {
			if expectTerm {
				return nil, 0, fmt.Errorf("constraint: expression ends where a term is expected")
			}
			return coef, c, nil
		}
		switch t.kind {
		case '+':
			if expectTerm {
				return nil, 0, fmt.Errorf("constraint: unexpected '+'")
			}
			sign = 1
			expectTerm = true
			p.next()
		case '-':
			if expectTerm {
				sign = -sign // unary minus
			} else {
				sign = -1
			}
			expectTerm = true
			p.next()
		case 'n':
			p.next()
			val := sign * t.num
			// Optional '*' and/or variable follows.
			if nt, ok := p.peek(); ok && nt.kind == '*' {
				p.next()
				vt, ok := p.next()
				if !ok || vt.kind != 'v' {
					return nil, 0, fmt.Errorf("constraint: '*' must be followed by a variable")
				}
				idx, err := varIndex(vt.text, p.dim)
				if err != nil {
					return nil, 0, err
				}
				coef[idx] += val
			} else if nt, ok := p.peek(); ok && nt.kind == 'v' {
				p.next()
				idx, err := varIndex(nt.text, p.dim)
				if err != nil {
					return nil, 0, err
				}
				coef[idx] += val
			} else {
				c += val
			}
			sign = 1
			expectTerm = false
		case 'v':
			p.next()
			idx, err := varIndex(t.text, p.dim)
			if err != nil {
				return nil, 0, err
			}
			coef[idx] += sign
			sign = 1
			expectTerm = false
		default:
			return nil, 0, fmt.Errorf("constraint: unexpected token %q", t.text)
		}
	}
}

// ParseConstraints parses the textual tuple syntax into normalized
// half-space constraints over E^dim.
func ParseConstraints(s string, dim int) ([]geom.HalfSpace, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, dim: dim}
	var out []geom.HalfSpace
	for {
		lhsCoef, lhsC, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		ct, ok := p.next()
		if !ok || ct.kind != 'c' {
			return nil, fmt.Errorf("constraint: expected comparison operator")
		}
		rhsCoef, rhsC, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		// Normalize to (lhs − rhs) θ 0.
		a := make([]float64, dim)
		for i := range a {
			a[i] = lhsCoef[i] - rhsCoef[i]
		}
		c := lhsC - rhsC
		// Individual literals are range-checked by ParseFloat, but summing
		// terms ("9e307x + 9e307x") can still overflow; a non-finite
		// coefficient would poison every surface computation downstream.
		for _, v := range append(append([]float64(nil), a...), c) {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("constraint: non-finite coefficient %g after combining terms", v)
			}
		}
		switch ct.text {
		case "<=", "<":
			out = append(out, geom.HalfSpace{A: a, C: c, Op: geom.LE})
		case ">=", ">":
			out = append(out, geom.HalfSpace{A: a, C: c, Op: geom.GE})
		case "=", "==":
			out = append(out,
				geom.HalfSpace{A: append([]float64(nil), a...), C: c, Op: geom.LE},
				geom.HalfSpace{A: a, C: c, Op: geom.GE})
		default:
			return nil, fmt.Errorf("constraint: unknown operator %q", ct.text)
		}
		sep, ok := p.next()
		if !ok {
			return out, nil
		}
		if sep.kind != ',' {
			return nil, fmt.Errorf("constraint: expected '&&' or ',', got %q", sep.text)
		}
	}
}

// ParseTuple parses a generalized tuple from the textual syntax.
func ParseTuple(s string, dim int) (*Tuple, error) {
	cons, err := ParseConstraints(s, dim)
	if err != nil {
		return nil, err
	}
	return NewTuple(dim, cons)
}

// formatConstraint renders one half-space as "2x + 3y <= 4": variable terms
// on the left, the constant moved to the right-hand side.
func formatConstraint(h geom.HalfSpace) string {
	var sb strings.Builder
	dim := h.Dim()
	wrote := false
	for i, a := range h.A {
		if a == 0 {
			continue
		}
		switch {
		case !wrote && a == 1: // formatting elides the coefficient only when it is exactly ±1
			sb.WriteString(varName(i, dim))
		case !wrote && a == -1: // formatting elides the coefficient only when it is exactly ±1
			sb.WriteString("-" + varName(i, dim))
		case !wrote:
			fmt.Fprintf(&sb, "%g%s", a, varName(i, dim))
		case a == 1: // formatting elides the coefficient only when it is exactly ±1
			sb.WriteString(" + " + varName(i, dim))
		case a == -1: // formatting elides the coefficient only when it is exactly ±1
			sb.WriteString(" - " + varName(i, dim))
		case a > 0:
			fmt.Fprintf(&sb, " + %g%s", a, varName(i, dim))
		default:
			fmt.Fprintf(&sb, " - %g%s", -a, varName(i, dim))
		}
		wrote = true
	}
	if !wrote {
		sb.WriteString("0")
	}
	fmt.Fprintf(&sb, " %s %g", h.Op, -h.C)
	return sb.String()
}
