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

// TestLexAllocatesOnlyTokens checks that lexing a point statement into
// the vector Parse lends allocates nothing, per word or for the vector
// (it allocated one vector of half the input length before Parse lent
// one), and that a statement with more tokens than the lent array still
// lexes whole.
func TestLexAllocatesOnlyTokens(t *testing.T) {
	const sql = "SELECT R1.id, R1.v FROM R1, R2, R3 WHERE R1.ja = R2.id AND R2.ja = R3.id AND R1.v < 7 ORDER BY R1.id"
	var buf [lexTokens]token
	if n := testing.AllocsPerRun(20, func() {
		if _, err := lex(sql, buf[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("lex into a lent vector allocates %.0f times, want 0", n)
	}
	long := "SELECT R1.id FROM R1 WHERE" + strings.Repeat(" R1.v < 7 AND", lexTokens/4) + " R1.v < 8"
	toks, err := lex(long, buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 + 6*(lexTokens/4) + 5 + 1; len(toks) != want || toks[len(toks)-1].kind != tokEOF ||
		toks[len(toks)-2].text != "8" {
		t.Fatalf("lexed %d tokens ending %v, want %d ending in 8 and EOF", len(toks), toks[len(toks)-2:], want)
	}
}
