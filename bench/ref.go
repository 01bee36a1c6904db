package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"citare"
	"citare/internal/gtopdb"
	"citare/internal/storage"
)

// gtopdbOptions are the Citer options citesrv builds its engine with.
func gtopdbOptions() []citare.Option {
	return []citare.Option{citare.WithNeutralCitation(gtopdb.DatabaseCitation())}
}

// reference answers wire requests in process, on an unsharded in-memory
// engine over the same generated instance the server loaded from CSV. It is
// the oracle of the sampled correctness check: whatever the server's
// configuration (LSM views, four shards), its payload must equal this one
// byte for byte.
type reference struct {
	*inproc
}

func newReference(db *storage.DB) (*reference, error) {
	p, err := openInproc(layout{}, db, "")
	if err != nil {
		return nil, err
	}
	return &reference{inproc: p}, nil
}

// wireCitation mirrors citesrv's /v1/cite response object field for field,
// so that encoding it reproduces the server's bytes.
type wireCitation struct {
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
	Rewritings  []string   `json:"rewritings"`
	Polynomials []string   `json:"polynomials"`
	Citation    string     `json:"citation"`
	Format      string     `json:"format"`
}

// wireTuple mirrors one tuple line of /v1/cite/stream.
type wireTuple struct {
	Index      int             `json:"index"`
	Values     []string        `json:"values"`
	Polynomial string          `json:"polynomial"`
	Citation   json.RawMessage `json:"citation"`
}

func (b citeBody) request() citare.Request {
	return citare.Request{SQL: b.SQL, Datalog: b.Datalog}
}

// encodeCitation shapes a citation as citesrv's /v1/cite handler does.
func encodeCitation(ct *citare.Citation) ([]byte, error) {
	rendered, err := ct.Rendered()
	if err != nil {
		return nil, err
	}
	out := wireCitation{
		Columns:    ct.Columns(),
		Rows:       ct.Rows(),
		Rewritings: ct.Rewritings(),
		Citation:   rendered,
		Format:     ct.Format(),
	}
	for i := 0; i < ct.NumTuples(); i++ {
		p, err := ct.TuplePolynomialAt(i)
		if err != nil {
			return nil, err
		}
		out.Polynomials = append(out.Polynomials, p)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// payload computes the bytes the server must have sent for req (see
// opResult.payload).
func (r *reference) payload(ctx context.Context, req wireRequest) ([]byte, error) {
	if !req.stream {
		ct, err := r.citer.Cite(ctx, req.body.request())
		if err != nil {
			return nil, err
		}
		return encodeCitation(ct)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := r.citer.CiteEach(ctx, req.body.request(), func(t citare.Tuple) error {
		return enc.Encode(wireTuple{Index: t.Index, Values: t.Values, Polynomial: t.Polynomial, Citation: json.RawMessage(t.CitationJSON)})
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verify recomputes every sampled response in process and returns how many
// differ, with the first difference as an error.
func (r *reference) verify(ctx context.Context, samples []sample) (int, error) {
	bad := 0
	var first error
	for _, s := range samples {
		want, err := r.payload(ctx, s.req)
		if err == nil && sha256.Sum256(want) != s.sum {
			err = fmt.Errorf("response differs from the in-process answer for %s %s", s.req.path(), s.req.body)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}
