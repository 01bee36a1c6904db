package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"unicode/utf8"

	"citare"
)

// decodeBody decodes the request's JSON body, of at most limit bytes, into
// v: the body must be one JSON value, with nothing but whitespace after it.
// On failure it has answered — 413 "limit" for an oversized body, 400 "parse"
// for anything else — and returns false.
//
// The body is read whole into a pooled buffer, whose life ends here: what
// v keeps of it is copied out. A cite request takes decodeCiteRequest's
// path, any other value json.Unmarshal's.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	buf := bodyPool.Get().(*[]byte)
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), (*buf)[:0])
	if err == nil {
		if req, ok := v.(*citeRequest); ok {
			err = decodeCiteRequest(body, req)
		} else {
			err = json.Unmarshal(body, v)
		}
	}
	putBody(buf, body)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		err = fmt.Errorf("%w: request body exceeds %d bytes: %w", citare.ErrLimit, limit, err)
	} else {
		err = fmt.Errorf("%w: %v", citare.ErrParse, err)
	}
	writeError(w, err, -1)
	return false
}

// readAll appends everything r holds to b, reading at least bytes.MinRead
// bytes at a time, as io.ReadAll does.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if cap(b)-len(b) < bytes.MinRead {
			b = slices.Grow(b, bytes.MinRead)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeCiteRequest decodes a /v1/cite or /v1/cite/stream body into req as
// json.Unmarshal does. The common body — one object of string fields whose
// keys are spelled as the wire schema spells them — is read in one pass
// that allocates only its strings; any other body, every malformed one
// included, goes to json.Unmarshal, whose answer it then is. The fast path
// therefore only has to be right on what it accepts, which
// TestDecodeCiteRequestMatchesEncodingJSON and FuzzCiteRequest hold to
// json.Unmarshal.
func decodeCiteRequest(body []byte, req *citeRequest) error {
	if fast, ok := scanCiteRequest(body); ok {
		*req = fast
		return nil
	}
	*req = citeRequest{}
	return json.Unmarshal(body, req)
}

// scanCiteRequest is decodeCiteRequest's fast path; ok false sends the body
// to json.Unmarshal.
func scanCiteRequest(b []byte) (req citeRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	for {
		key, escaped, j, ok := scanString(b, i)
		if !ok || escaped {
			return req, false
		}
		// json.Unmarshal also matches keys without regard to case, and
		// fills the other fields from other kinds of value: only the exact
		// spellings of the string fields are taken here.
		var dst *string
		switch string(key) {
		case "sql":
			dst = &req.SQL
		case "datalog":
			dst = &req.Datalog
		case "format":
			dst = &req.Format
		default:
			return req, false
		}
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return req, false
		}
		val, escaped, j, ok := scanString(b, skipSpace(b, i+1))
		if !ok {
			return req, false
		}
		*dst = unquote(val, escaped)
		if i = skipSpace(b, j); i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads the JSON string at b[i] if its bytes are valid UTF-8 and
// its escapes, if any, are among \" \\ \/ \b \f \n \r \t: raw is its body
// (aliasing b), escaped whether it holds an escape, end the index after its
// closing quote.
func scanString(b []byte, i int) (raw []byte, escaped bool, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, false, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], escaped, j + 1, utf8.Valid(b[i+1 : j])
		case c < ' ':
			return nil, false, 0, false
		case c == '\\':
			if j++; j == len(b) || unescape(b[j]) == 0 {
				return nil, false, 0, false
			}
			escaped = true
		}
	}
	return nil, false, 0, false
}

// unescape returns the byte the escape \c stands for, or 0 for an escape
// scanString does not take (\u, or none at all).
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// unquote returns the string a body scanString accepted spells.
func unquote(raw []byte, escaped bool) string {
	if !escaped {
		return string(raw)
	}
	out := make([]byte, 0, len(raw))
	for k := 0; k < len(raw); k++ {
		if raw[k] == '\\' {
			k++
			out = append(out, unescape(raw[k]))
		} else {
			out = append(out, raw[k])
		}
	}
	return string(out)
}
