// Package sqlish parses a small SQL-like query language into the
// relational logical algebra of internal/rel, producing the expression
// tree and required physical property vector that a generated optimizer
// consumes. The dialect covers exactly what the examples and experiments
// need:
//
//	SELECT * | col[, col...] | agg(col)[, ...]
//	FROM table[, table...]
//	[WHERE pred [AND pred...]]
//	[GROUP BY col[, col...]]
//	[ORDER BY col [DESC]]
//	[INTERSECT SELECT ...]
//
// Predicates compare a column with an integer constant or with another
// column; equality predicates across tables become joins.
package sqlish

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSymbol // ( ) , . * = < > <= >= <>
	tokKeyword
	tokParam // $1, $2, ... — runtime parameters
)

// keywords of the dialect, uppercase, each mapped to itself: a lookup
// by any spelling returns the keyword's own string.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields("SELECT FROM WHERE AND GROUP BY ORDER DESC ASC " +
		"INTERSECT UNION DISTINCT COUNT SUM MIN MAX") {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = len("INTERSECT")

// keyword returns the keyword a word spells in any case, and whether it
// spells one. An ASCII word is uppercased in a stack buffer, so neither
// an identifier nor a keyword allocates; any other word takes
// strings.ToUpper, whose Unicode case mapping could spell a keyword.
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
		if i < len(buf) {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
	}
	if len(word) > len(buf) {
		return "", false
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// token is one lexed unit.
type token struct {
	kind tokKind
	text string // keywords uppercased; symbols verbatim
	pos  int
}

// lexTokens is the length of the token array Parse lends lex: a served
// point statement has some 35 tokens; a longer statement grows the
// vector on the heap.
const lexTokens = 64

// lex splits the input into tokens, appending them to toks[:0]. Tokens
// never outlive the parse — their texts are substrings of the input — so
// Parse lends lex a vector in its own frame.
func lex(input string, toks []token) ([]token, error) {
	toks = toks[:0]
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) && (unicode.IsLetter(rune(input[i])) ||
				unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{kind: tokKeyword, text: kw, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		case unicode.IsDigit(c):
			start := i
			for i < len(input) && unicode.IsDigit(rune(input[i])) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case c == '$':
			start := i
			i++
			for i < len(input) && unicode.IsDigit(rune(input[i])) {
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("sqlish: bare $ at offset %d", start)
			}
			toks = append(toks, token{kind: tokParam, text: input[start+1 : i], pos: start})
		case strings.ContainsRune("(),.*=", c):
			toks = append(toks, token{kind: tokSymbol, text: input[i : i+1], pos: i})
			i++
		case c == '<' || c == '>':
			start := i
			i++
			if i < len(input) && (input[i] == '=' || (c == '<' && input[i] == '>')) {
				i++
			}
			toks = append(toks, token{kind: tokSymbol, text: input[start:i], pos: start})
		default:
			return nil, fmt.Errorf("sqlish: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}
