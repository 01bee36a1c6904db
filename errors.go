package citare

import (
	"context"
	"errors"
	"fmt"

	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/sqlfe"
)

// The error taxonomy of the request API. Every error returned by Cite and
// CiteEach, and every CiteBatchItems slot's, is tagged with exactly one of
// these sentinels, so callers classify failures with errors.Is instead of
// string matching:
//
//	res, err := citer.Cite(ctx, req)
//	switch {
//	case errors.Is(err, citare.ErrParse):    // 4xx: bad query text
//	case errors.Is(err, citare.ErrSchema):   // 4xx: query vs schema mismatch
//	case errors.Is(err, citare.ErrCanceled): // client gone / deadline hit
//	case errors.Is(err, citare.ErrLimit):    // per-request bound exceeded
//	case errors.Is(err, citare.ErrShardUnavailable): // 503: no whole citation
//	}
//
// The underlying cause stays reachable through errors.As / errors.Is — e.g.
// a deadline failure satisfies both ErrCanceled and context.DeadlineExceeded,
// a SQL syntax error satisfies ErrParse while *sqlfe.Error still carries
// the byte offset, and a shard's failure satisfies ErrShardUnavailable while
// *eval.UnavailableError names the shard and wraps its cause — an expired
// attempt deadline, too, which is not the request's and so not ErrCanceled.
var (
	// ErrParse tags query-text failures: SQL or datalog syntax errors,
	// malformed requests (no query, or both SQL and datalog), unknown render
	// formats, and structurally invalid queries (e.g. a head variable that
	// never occurs in the body).
	ErrParse = errors.New("citare: parse error")
	// ErrSchema tags schema mismatches between a well-formed query and the
	// database: unknown relations and atom/relation arity disagreements.
	ErrSchema = errors.New("citare: schema mismatch")
	// ErrCanceled tags requests cut short by their context — canceled by the
	// caller or past their deadline. The context's own error is wrapped, so
	// errors.Is(err, context.DeadlineExceeded) still distinguishes the two.
	ErrCanceled = errors.New("citare: request canceled")
	// ErrLimit tags requests aborted by a per-request bound, e.g. a query
	// producing more output tuples than Request.MaxTuples allows.
	ErrLimit = errors.New("citare: limit exceeded")
	// ErrRange tags out-of-range index accesses on new-style Citation
	// accessors (TuplePolynomialAt, TupleCitationJSONAt), and versions
	// Citer.AsOf rejects because they are not committed.
	ErrRange = errors.New("citare: index out of range")
	// ErrShardUnavailable tags requests that failed because a shard of a
	// sharded engine stayed unreachable — after its attempt budget, on a
	// resilient one. A citation is whole or not given: there is no partial
	// one. The eval-level *eval.UnavailableError, naming the shard and
	// wrapping the cause, stays reachable via errors.As.
	ErrShardUnavailable = errors.New("citare: shard unavailable")
)

// tagged reports whether err already carries one of the taxonomy sentinels.
func tagged(err error) bool {
	return errors.Is(err, ErrParse) || errors.Is(err, ErrSchema) ||
		errors.Is(err, ErrCanceled) || errors.Is(err, ErrLimit) || errors.Is(err, ErrRange) ||
		errors.Is(err, ErrShardUnavailable)
}

// classify tags an engine- or evaluation-level error with the matching
// taxonomy sentinel. Errors that already carry a tag pass through, and
// errors no category claims (internal invariants) stay untagged.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case tagged(err):
		return err
	// Before the context errors: a shard's failure wraps its cause, which
	// may be an expired attempt deadline.
	case errors.Is(err, eval.ErrShardUnavailable):
		return fmt.Errorf("%w: %w", ErrShardUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, eval.ErrTupleLimit):
		return fmt.Errorf("%w: %w", ErrLimit, err)
	case errors.Is(err, eval.ErrSchema):
		return fmt.Errorf("%w: %w", ErrSchema, err)
	}
	var sqlErr *sqlfe.Error
	var dlErr *datalog.Error
	if errors.As(err, &sqlErr) || errors.As(err, &dlErr) {
		return fmt.Errorf("%w: %w", ErrParse, err)
	}
	return err
}

// parseError tags any error from the request-parsing stage as ErrParse.
func parseError(err error) error {
	if err == nil || tagged(err) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrParse, err)
}
