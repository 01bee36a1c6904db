package citare

import (
	"context"
	"errors"
	"fmt"

	"citare/internal/datalog"
	"citare/internal/eval"
	"citare/internal/sqlfe"
)

// The error taxonomy of the request API. Every error returned by Cite,
// CiteBatch and CiteEach is tagged with exactly one of these sentinels, so
// callers classify failures with errors.Is instead of string matching:
//
//	res, err := citer.Cite(ctx, req)
//	switch {
//	case errors.Is(err, citare.ErrParse):    // 4xx: bad query text
//	case errors.Is(err, citare.ErrSchema):   // 4xx: query vs schema mismatch
//	case errors.Is(err, citare.ErrCanceled): // client gone / deadline hit
//	case errors.Is(err, citare.ErrLimit):    // per-request bound exceeded
//	}
//
// The underlying cause stays reachable through errors.As / errors.Is — e.g.
// a deadline failure satisfies both ErrCanceled and context.DeadlineExceeded,
// and a SQL syntax error satisfies ErrParse while *sqlfe.Error still carries
// the byte offset.
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
	// ErrShardUnavailable tags requests that failed because one or more
	// shards of a resilient sharded engine stayed unreachable after their
	// attempt budget and the request required full coverage (the default).
	// The eval-level *eval.UnavailableError (with its Coverage report) stays
	// reachable via errors.As.
	ErrShardUnavailable = errors.New("citare: shard unavailable")
	// ErrPartial tags citations computed under a degraded-coverage policy:
	// the request set MinShardCoverage, some shards were skipped, and the
	// returned Citation — which is still valid for the shards that answered —
	// may be incomplete. Returned alongside a non-nil Citation as a
	// *PartialError carrying the machine-readable Coverage report.
	ErrPartial = errors.New("citare: partial citation")
)

// PartialError reports a degraded citation: the request allowed partial
// shard coverage and some shards were skipped. It accompanies a usable,
// possibly incomplete Citation; Coverage details which shards answered,
// were pruned, or were skipped, and the attempt economics.
type PartialError struct {
	// Coverage is the request's merged shard-coverage report.
	Coverage *Coverage
}

func (e *PartialError) Error() string {
	if e.Coverage == nil {
		return ErrPartial.Error()
	}
	return fmt.Sprintf("citare: partial citation: %d of %d shards skipped",
		e.Coverage.Skipped, e.Coverage.Shards)
}

// Unwrap exposes ErrPartial to errors.Is.
func (e *PartialError) Unwrap() error { return ErrPartial }

// BatchError reports which request of a CiteBatch failed first. It wraps
// the underlying tagged error, so errors.Is sees through it.
type BatchError struct {
	// Index is the position of the failed request in the batch.
	Index int
	// Err is the request's tagged error.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("citare: batch request %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying tagged error to errors.Is / errors.As.
func (e *BatchError) Unwrap() error { return e.Err }

// tagged reports whether err already carries one of the taxonomy sentinels.
func tagged(err error) bool {
	return errors.Is(err, ErrParse) || errors.Is(err, ErrSchema) ||
		errors.Is(err, ErrCanceled) || errors.Is(err, ErrLimit) || errors.Is(err, ErrRange) ||
		errors.Is(err, ErrShardUnavailable) || errors.Is(err, ErrPartial)
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
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, eval.ErrTupleLimit):
		return fmt.Errorf("%w: %w", ErrLimit, err)
	case errors.Is(err, eval.ErrSchema):
		return fmt.Errorf("%w: %w", ErrSchema, err)
	case errors.Is(err, eval.ErrShardUnavailable):
		return fmt.Errorf("%w: %w", ErrShardUnavailable, err)
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
