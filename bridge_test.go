package citare

// Small indirections shared by the integration tests.

import (
	"citare/internal/cq"
	"citare/internal/eval"
	"citare/internal/storage"
)

func equivalentQueries(a, b *cq.Query) bool { return cq.Equivalent(a, b) }

func evalDirect(db *storage.DB, q *cq.Query) (map[string]bool, error) {
	res, err := eval.EvalOpts(db, q, eval.Options{})
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(res.Tuples))
	for _, t := range res.Tuples {
		out[t.Key()] = true
	}
	return out, nil
}
