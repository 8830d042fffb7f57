package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"github.com/shortcircuit-db/sc/internal/table"
)

// mvBodies holds the buffers MV query bodies are built in. A buffer that
// grew past maxPooledBody (a whole large MV) is dropped, not pooled, so one
// big read does not pin its size for good.
var mvBodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 4 << 20

// appendTableJSON appends the JSON body of an MV query result, straight
// from the column vectors:
//
//	{"pipeline":…,"mv":…,"columns":[…],"types":[…],"rows":N,"data":[[…],…]}
//
// plus a trailing newline: byte for byte what encoding/json's Encoder
// writes for the same object, "columns":null,"types":null for a schema
// without columns and "data":[] for no rows included. A NaN or infinite
// FLOAT cell has no JSON form; the error names its row and column.
func appendTableJSON(b []byte, pipeline, mv string, t *table.Table) ([]byte, error) {
	b = append(b, `{"pipeline":`...)
	b = appendJSONString(b, pipeline)
	b = append(b, `,"mv":`...)
	b = appendJSONString(b, mv)
	cols := t.Schema.Cols
	if len(cols) == 0 {
		b = append(b, `,"columns":null,"types":null`...)
	} else {
		b = append(b, `,"columns":[`...)
		for i, c := range cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c.Name)
		}
		b = append(b, `],"types":[`...)
		for i, c := range cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c.Type.String())
		}
		b = append(b, ']')
	}
	rows := t.NumRows()
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	b = append(b, `,"data":[`...)
	for i := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range t.Cols {
			if j > 0 {
				b = append(b, ',')
			}
			switch v.Type {
			case table.Int:
				b = strconv.AppendInt(b, v.Ints[i], 10)
			case table.Float:
				f := v.Floats[i]
				if math.IsInf(f, 0) || math.IsNaN(f) {
					return b, fmt.Errorf("mv %q: row %d, column %q: FLOAT %v has no JSON form", mv, i, cols[j].Name, f)
				}
				b = appendJSONFloat(b, f)
			default:
				b = appendJSONString(b, v.Strs[i])
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}\n"...), nil
}

// appendJSONFloat appends a finite f as encoding/json formats a float64:
// 'f' format, 'e' below 1e-6 and from 1e21 in magnitude, with a two-digit
// negative exponent shortened (e-07 is written e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as encoding/json quotes a string, HTML
// escaping included: printable ASCII that needs no escape is copied as is;
// a string with any other byte goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
