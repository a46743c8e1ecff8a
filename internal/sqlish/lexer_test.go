package sqlish

import (
	"strings"
	"testing"
)

// TestKeywordMatchesToUpper holds keyword to the definition it replaces:
// a word is a keyword when strings.ToUpper of it is one, and its token
// text is that uppercase spelling.
func TestKeywordMatchesToUpper(t *testing.T) {
	words := []string{"id", "ja", "v", "R1", "_x", "selection", "ORDERS", "by1", "Bye",
		"intersects", "INTERSECTION", "ſelect", "ſum", "diſtinct", "Ä", "a"}
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Fatalf("keyword %s is longer than maxKeywordLen %d", kw, maxKeywordLen)
		}
		words = append(words, kw, strings.ToLower(kw), strings.ToLower(kw[:1])+kw[1:], kw[:len(kw)-1])
	}
	for _, w := range words {
		upper := strings.ToUpper(w)
		_, want := keywords[upper]
		got, ok := keyword(w)
		if ok != want || ok && got != upper {
			t.Errorf("keyword(%q) = %q, %v; want %q, %v", w, got, ok, upper, want)
		}
	}
}

// TestLexAllocatesOnlyTokens checks that lexing a point statement
// allocates its token vector and nothing per word.
func TestLexAllocatesOnlyTokens(t *testing.T) {
	const sql = "SELECT R1.id, R1.v FROM R1, R2, R3 WHERE R1.ja = R2.id AND R2.ja = R3.id AND R1.v < 7 ORDER BY R1.id"
	if n := testing.AllocsPerRun(20, func() {
		if _, err := lex(sql); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("lex allocates %.0f times, want 1", n)
	}
}
