// Package sqlparse implements a SQL lexer, parser, AST and printer shared by
// the legacy EDW dialect and the CDW dialect. The virtualizer parses incoming
// legacy SQL with DialectLegacy, rewrites the AST (internal/sqlxlate), and
// prints it with DialectCDW for execution on the cloud warehouse; the CDW
// engine parses that text back with DialectCDW.
package sqlparse

import (
	"fmt"
	"strings"
)

// Dialect selects dialect-specific syntax during parsing and printing.
type Dialect int

// Supported dialects.
const (
	// DialectLegacy is the Teradata-style EDW dialect: SEL abbreviation,
	// TOP n, named :placeholders, CAST (x AS DATE FORMAT 'YYYY-MM-DD'),
	// CHARACTER SET clauses in types.
	DialectLegacy Dialect = iota
	// DialectCDW is the cloud warehouse dialect: LIMIT n, TO_DATE/TO_CHAR
	// instead of FORMAT casts, no placeholders.
	DialectCDW
)

// String names the dialect.
func (d Dialect) String() string {
	if d == DialectCDW {
		return "cdw"
	}
	return "legacy"
}

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokQuotedIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
	TokPlaceholder // :NAME
)

// Token is one lexical element with its source position (1-based line/col).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; idents keep original case
	Line int
	Col  int
}

// keywords is the set of words lexed as TokKeyword (upper-cased).
var keywords = map[string]bool{
	"SELECT": true, "SEL": true, "FROM": true, "WHERE": true, "GROUP": true,
	"BY": true, "HAVING": true, "ORDER": true, "ASC": true, "DESC": true,
	"LIMIT": true, "TOP": true, "DISTINCT": true, "ALL": true, "AS": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "DROP": true,
	"TRUNCATE": true, "IF": true, "EXISTS": true, "NOT": true, "NULL": true,
	"PRIMARY": true, "KEY": true, "UNIQUE": true, "DEFAULT": true,
	"AND": true, "OR": true, "IN": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "CAST": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "FULL": true, "OUTER": true, "CROSS": true, "ON": true,
	"USING": true, "COPY": true, "FORMAT": true, "DATE": true, "TIME": true,
	"TIMESTAMP": true, "INTERVAL": true, "CHARACTER": true, "VARYING": true,
	"TRUE": true, "FALSE": true, "MOD": true, "COUNT": true,
	"CHECKPOINT": true, "OPTIONS": true, "MERGE": true, "MATCHED": true,
	"ROW_NUMBER": true, "OVER": true, "PARTITION": true,
}

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = 10

// isKeyword reports whether word, in any case, is a keyword. It upper-cases
// into a stack buffer, so an identifier costs no allocation.
func isKeyword(word string) bool {
	if len(word) > maxKeywordLen {
		return false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// Lexer tokenizes SQL text.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return fmt.Errorf("sqlparse: unterminated block comment at line %d", l.line)
			}
		default:
			return nil
		}
	}
	return nil
}

// quoted consumes a token delimited by q, the opening q at l.pos included,
// and returns its text with each doubled q undoubled. A token without a
// doubled q is a slice of the source. ok is false when the closing q is
// missing.
func (l *Lexer) quoted(q byte) (text string, ok bool) {
	l.advance()
	start := l.pos
	var sb *strings.Builder // set once a doubled q is seen
	for {
		if l.pos >= len(l.src) {
			return "", false
		}
		if l.advance() != q {
			continue
		}
		if l.peek() != q {
			break
		}
		if sb == nil {
			sb = &strings.Builder{}
		}
		sb.WriteString(l.src[start:l.pos]) // up to and including the first q
		l.advance()
		start = l.pos
	}
	if sb == nil {
		return l.src[start : l.pos-1], true
	}
	sb.WriteString(l.src[start : l.pos-1])
	return sb.String(), true
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '#' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.pos]
		if isKeyword(word) {
			tok.Kind = TokKeyword
			tok.Text = strings.ToUpper(word)
		} else {
			tok.Kind = TokIdent
			tok.Text = word
		}
		return tok, nil

	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		start := l.pos
		seenDot := false
		seenExp := false
		for l.pos < len(l.src) {
			ch := l.peek()
			if isDigit(ch) {
				l.advance()
				continue
			}
			if ch == '.' && !seenDot && !seenExp {
				seenDot = true
				l.advance()
				continue
			}
			if (ch == 'e' || ch == 'E') && !seenExp && l.pos > start {
				next := l.peek2()
				if isDigit(next) || next == '+' || next == '-' {
					seenExp = true
					l.advance() // e
					l.advance() // sign or digit
					continue
				}
			}
			break
		}
		tok.Kind = TokNumber
		tok.Text = l.src[start:l.pos]
		return tok, nil

	case c == '\'':
		text, ok := l.quoted('\'')
		if !ok {
			return Token{}, fmt.Errorf("sqlparse: unterminated string at line %d", tok.Line)
		}
		tok.Kind = TokString
		tok.Text = text
		return tok, nil

	case c == '"':
		text, ok := l.quoted('"')
		if !ok {
			return Token{}, fmt.Errorf("sqlparse: unterminated quoted identifier at line %d", tok.Line)
		}
		tok.Kind = TokQuotedIdent
		tok.Text = text
		return tok, nil

	case c == ':':
		if isIdentStart(l.peek2()) {
			l.advance() // :
			start := l.pos
			for l.pos < len(l.src) && isIdentCont(l.peek()) {
				l.advance()
			}
			tok.Kind = TokPlaceholder
			tok.Text = l.src[start:l.pos]
			return tok, nil
		}
		l.advance()
		tok.Kind = TokOp
		tok.Text = ":"
		return tok, nil

	default:
		// multi-char operators first
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "||", "<=", ">=", "<>", "!=", "**":
			l.advance()
			l.advance()
			tok.Kind = TokOp
			if two == "!=" {
				two = "<>"
			}
			tok.Text = two
			return tok, nil
		}
		switch c {
		case '(', ')', ',', ';', '.', '+', '-', '*', '/', '%', '=', '<', '>':
			tok.Kind = TokOp
			tok.Text = l.src[l.pos : l.pos+1]
			l.advance()
			return tok, nil
		}
		return Token{}, fmt.Errorf("sqlparse: unexpected character %q at line %d col %d", c, l.line, l.col)
	}
}

// LexAll tokenizes src completely. It sizes the token slice from the
// source length (translated statements run 3.3 to 4.2 bytes per token), so
// a statement is lexed into one allocation.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	out := make([]Token, 0, len(src)/3+1)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
