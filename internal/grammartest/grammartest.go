// Package grammartest holds the grammars that the oracle tests of the
// analysis and of the optimizer share: closed grammars decoded from fuzzer
// input, and extensions of three bundled grammars with each modification
// operator.
package grammartest

import (
	"fmt"

	"modpeg/internal/peg"
)

// Decode decodes data into a closed grammar of at most eight
// productions. Every reference names one of them, so self, mutual and
// left recursion all arise; bodies mix literals, classes, predicates,
// repetitions, nested choices and captures, under void and text
// attributes as well as none. Any data decodes, the empty slice included.
func Decode(data []byte) *peg.Grammar {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%8
	name := func(i int) string { return fmt.Sprintf("f.P%d", i%n) }
	var expr func(depth int) peg.Expr
	choice := func(depth int) *peg.Choice {
		c := &peg.Choice{}
		for alts := 1 + next()%3; alts > 0; alts-- {
			s := &peg.Seq{}
			for items := 1 + next()%3; items > 0; items-- {
				s.Items = append(s.Items, peg.Item{Expr: expr(depth + 1)})
			}
			c.Alts = append(c.Alts, s)
		}
		return c
	}
	expr = func(depth int) peg.Expr {
		k := next()
		if depth > 3 {
			k %= 5
		}
		switch k % 14 {
		case 0:
			return peg.Lit([]string{"", "a", "b", "ab"}[next()%4])
		case 1:
			lo := byte('a' + next()%3)
			if next()%2 == 0 {
				return peg.NotClass(lo, lo+1)
			}
			return peg.Class(lo, lo+1)
		case 2, 3:
			return peg.Ref(name(next()))
		case 4:
			return []peg.Expr{peg.Eps(), peg.Dot()}[next()%2]
		case 5:
			return peg.Ahead(expr(depth + 1))
		case 6:
			return peg.Never(expr(depth + 1))
		case 7:
			return peg.Opt(expr(depth + 1))
		case 8:
			return peg.Star(expr(depth + 1))
		case 9:
			return peg.Plus(expr(depth + 1))
		case 10, 11:
			return choice(depth)
		case 12:
			return peg.Text(expr(depth + 1))
		default:
			return peg.SeqOf(expr(depth+1), expr(depth+1))
		}
	}
	g := &peg.Grammar{Root: name(0)}
	for i := 0; i < n; i++ {
		attrs := []peg.Attr{0, peg.AttrVoid, peg.AttrText}[next()%3]
		g.Add(peg.DefineProd(name(i), attrs, choice(0)))
	}
	return g
}

// Extensions modify java.core, calc.full and json.value with each of +=,
// -= and :=, the way a tenant upload does. Each maps module names to
// sources; its top module is "t", composed over the bundled modules.
var Extensions = map[string]map[string]string{
	"java": {
		"t": "module t;\nimport java.decl;\nimport x;\noption root = java.decl.CompilationUnit;\n",
		"x": `module x;
modify java.stmt;
import java.lex;
import java.expr;
Statement += <skip> KwSkip n:Expression? SEMI @Skip before <if> ;
Statement -= dowhile, labeled ;
ElseClause := KwElse s:Statement @Else / KwElif c:Expression s:Statement @Elif ;
void KwSkip = "skip" !IdentPart Spacing ;
void KwElif = "elif" !IdentPart Spacing ;
void IdentPart = [a-zA-Z0-9_$] ;
`,
	},
	"calc": {
		"t": "module t;\nimport calc.core;\nimport calc.pow;\nimport calc.cmp;\nimport x;\noption root = calc.core.Program;\n",
		"x": `module x;
modify calc.core;
import calc.lex;
Sum += <mod> l:Sum PERCENT r:Prod @Mod after <sub> ;
Prod -= div ;
Atom := <num> Number / <neg> MINUS a:Atom @Neg / <paren> LPAREN e:Sum RPAREN ;
void PERCENT = "%" Spacing ;
`,
	},
	"json": {
		"t": "module t;\nimport json.value;\nimport x;\noption root = json.value.Json;\n",
		"x": `module x;
modify json.value;
import json.lex;
Value += <undef> "undefined" Spacing @Undef before <null> ;
Object -= empty ;
Elements := head:Value tail:(COMMA v:Value)* COMMA? @Elements ;
`,
	},
}
