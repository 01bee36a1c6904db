package core

import (
	"context"

	"citare/internal/cq"
	"citare/internal/format"
	"citare/internal/provenance"
)

// TokenRecord renders one token through the token cache at the engine's
// current snapshot, as a citation's render stage does.
func (e *Engine) TokenRecord(pt provenance.Token) (*format.Object, error) {
	return e.renderTokenCached(context.Background(), e.curState(), pt)
}

// RenderToken renders a view token's citation record at the engine's
// current epoch without the token cache, as a render stage's miss does.
func (e *Engine) RenderToken(tok Token) (*format.Object, error) {
	obj, _, err := e.byName[tok.Name].renderTokenCtx(context.Background(), e.curState().snap, tok)
	return obj, err
}

// CiteQuery cites q the way the facade does: validate it, Prepare it, then
// CitePrepared — or CiteEachPrepared, streaming into fn, when fn is set.
func (e *Engine) CiteQuery(ctx context.Context, q *cq.Query, maxTuples int, fn func(*TupleCitation) error) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := e.Prepare(q.Clone())
	if fn != nil {
		return e.CiteEachPrepared(ctx, p, maxTuples, fn)
	}
	return e.CitePrepared(ctx, p, maxTuples)
}
