// Package sql provides the SQL subset S/C workload nodes are written in:
// SELECT-PROJECT-JOIN blocks with aggregation, the unit the paper's
// workloads decompose TPC-DS queries into (§VI-A). It contains a lexer, a
// recursive-descent parser, and a planner that lowers statements onto the
// execution engine against a schema catalog.
//
// Supported grammar (case-insensitive keywords):
//
//	stmt     := [CREATE MATERIALIZED VIEW name AS] select
//	select   := SELECT item ("," item)* FROM ref (JOIN ref ON cond)*
//	            [WHERE expr] [GROUP BY expr ("," expr)*]
//	            [ORDER BY ordItem ("," ordItem)*] [LIMIT int]
//	item     := expr [AS ident] | "*"
//	ref      := ident [ident]                      -- table with optional alias
//	expr     := disjunction with AND/OR/NOT, comparisons, + - * / %,
//	            IN (literal list), parentheses, aggregate calls
//	number   := digits ["." [digits]] [("e"|"E") ["+"|"-"] digits]
//	            -- FLOAT with a "." or an exponent, else INT; a number
//	            -- may not run straight into an identifier character
//
// Input is UTF-8, read a rune at a time: an identifier starts with a
// letter or "_" and goes on with letters, digits and "_" of any script,
// tokens are separated by Unicode white space, and a number starts only at
// an ASCII digit. Invalid UTF-8 is an error at its byte offset.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; identifiers as written
	pos  int    // byte offset for error messages
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "JOIN": true, "ON": true, "AS": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "ASC": true, "DESC": true,
	"CREATE": true, "MATERIALIZED": true, "VIEW": true,
	"INNER": true, "COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// lex tokenizes the input.
func lex(input string) ([]token, error) {
	for i, c := range input {
		if c == utf8.RuneError && !strings.HasPrefix(input[i:], string(utf8.RuneError)) {
			return nil, fmt.Errorf("sql: invalid UTF-8 at offset %d", i)
		}
	}
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n {
				r, size := utf8.DecodeRuneInString(input[i:])
				if !isIdentChar(r) {
					break
				}
				i += size
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case '0' <= c && c <= '9':
			start := i
			seenDot := false
			for i < n && (isDigit(input[i]) || (!seenDot && input[i] == '.')) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			// An exponent, [eE][+-]?digits, is part of a FLOAT literal.
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && isDigit(input[j]) {
					for j < n && isDigit(input[j]) {
						j++
					}
					i = j
				}
			}
			if r, _ := utf8.DecodeRuneInString(input[i:]); i < n && isIdentChar(r) {
				return nil, fmt.Errorf("sql: number %q runs into %q at offset %d", input[start:i], r, i)
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, sb.String(), start})
		default:
			start := i
			// Two-char operators first.
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					toks = append(toks, token{tokSymbol, two, start})
					i += 2
					continue
				}
			}
			switch c {
			case ',', '(', ')', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
				toks = append(toks, token{tokSymbol, string(c), start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}
