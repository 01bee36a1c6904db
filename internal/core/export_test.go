package core

import (
	"context"

	"citare/internal/format"
	"citare/internal/provenance"
)

// TokenRecord renders one token through the token cache at the engine's
// current snapshot, as a citation's render stage does.
func (e *Engine) TokenRecord(pt provenance.Token) (*format.Object, error) {
	return e.renderTokenCached(context.Background(), e.curState(), pt)
}
