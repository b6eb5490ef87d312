// Package parser implements a hand-written lexer and recursive-descent
// parser for the SQL dialect used by the rewrite tool: CREATE TABLE,
// CREATE FUNCTION with procedural bodies, and SELECT queries with joins,
// grouping, and subqueries.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam  // :name or @name
	tokAtAt   // @@NAME pseudo-variable
	tokSymbol // punctuation and operators
)

// token is one lexical token with its source position.
type token struct {
	kind tokKind
	text string // canonical text (keywords upper-cased, params without sigil)
	pos  int    // byte offset in input
	line int
}

// keywords recognized by the lexer; identifiers matching these (case
// insensitively) become tokKeyword with upper-case text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "TOP": true,
	"DISTINCT": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "TRUE": true, "FALSE": true, "IS": true, "IN": true,
	"EXISTS": true, "BETWEEN": true, "LIKE": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "CROSS": true, "ON": true, "INTO": true,
	"CREATE": true, "TABLE": true, "FUNCTION": true, "RETURNS": true,
	"RETURN": true, "BEGIN": true, "DECLARE": true, "SET": true, "IF": true,
	"WHILE": true, "CURSOR": true, "FOR": true, "OPEN": true, "FETCH": true,
	"NEXT": true, "CLOSE": true, "DEALLOCATE": true, "INSERT": true,
	"VALUES": true, "PRIMARY": true, "KEY": true, "SHARD": true, "INT": true,
	"INTEGER": true, "FLOAT": true, "REAL": true, "CHAR": true,
	"VARCHAR": true, "STRING": true, "BOOLEAN": true, "BOOL": true,
	"LIMIT": true, "UNION": true, "ALL": true,
	"COMMIT": true, "ROLLBACK": true, "TRANSACTION": true, "WORK": true,
}

// lexer tokenizes an input string.
type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex tokenizes src, returning the token stream or a lexical error.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errf("unterminated block comment")
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start, line: l.line}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start, line: l.line}, nil
		}
		return token{kind: tokIdent, text: strings.ToLower(word), pos: start, line: l.line}, nil

	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch >= '0' && ch <= '9' {
				l.pos++
			} else if ch == '.' && !seenDot {
				// Don't treat "1.." or "1.x" (qualified) as float.
				if l.pos+1 < len(l.src) && isIdentStart(l.src[l.pos+1]) {
					break
				}
				seenDot = true
				l.pos++
			} else if (ch == 'e' || ch == 'E') && l.pos+1 < len(l.src) &&
				(l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' || l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+') {
				seenDot = true
				l.pos += 2
			} else {
				break
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start, line: l.line}, nil

	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			if ch == '\n' {
				l.line++
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{kind: tokString, text: b.String(), pos: start, line: l.line}, nil

	case c == ':' || c == '@':
		if c == '@' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '@' {
			l.pos += 2
			vs := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == vs {
				return token{}, l.errf("expected identifier after @@")
			}
			return token{kind: tokAtAt, text: strings.ToUpper(l.src[vs:l.pos]), pos: start, line: l.line}, nil
		}
		l.pos++
		vs := l.pos
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == vs {
			return token{}, l.errf("expected identifier after %q", string(c))
		}
		return token{kind: tokParam, text: strings.ToLower(l.src[vs:l.pos]), pos: start, line: l.line}, nil

	default:
		// Multi-byte operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "!=", "<=", ">=", "||":
			l.pos += 2
			if two == "!=" {
				two = "<>"
			}
			return token{kind: tokSymbol, text: two, pos: start, line: l.line}, nil
		}
		switch c {
		case '(', ')', ',', ';', '.', '*', '+', '-', '/', '%', '=', '<', '>', '?':
			l.pos++
			return token{kind: tokSymbol, text: string(c), pos: start, line: l.line}, nil
		}
		return token{}, l.errf("unexpected character %q", string(c))
	}
}
