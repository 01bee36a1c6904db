package core_test

// Streaming-pipeline behavior at the engine level: cancellation during the
// token-rendering phase (PR 5 carried bugfix), render laziness of CiteEach
// (the first citation is delivered before later tuples render), and
// byte-parity of the streamed pipeline against the materialized one.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"citare/internal/core"
	"citare/internal/format"
	"citare/internal/obs"
	"citare/internal/storage"
)

// renderHarness builds an engine whose single view V(λA) covers R(A,B), so a
// query over R gets one token per distinct A value — a workload whose cost
// is concentrated in the render phase. hook runs on every token render.
func renderHarness(t *testing.T, rows int, hook func()) (*core.Engine, *atomic.Int64) {
	t.Helper()
	s := storage.NewSchema()
	s.MustAddRelation(&storage.RelSchema{Name: "R", Cols: []storage.Column{{Name: "A"}, {Name: "B"}}})
	db := storage.NewDB(s)
	for i := 0; i < rows; i++ {
		db.MustInsert("R", fmt.Sprintf("a%04d", i), "c")
	}
	def := mustQuery(t, `λA. V(A, B) :- R(A, B)`)
	citeQ := mustQuery(t, `λA. C(A) :- R(A, B)`)
	v, err := core.NewCitationView(def, citeQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	var renders atomic.Int64
	v.Fn = func(rows *format.Rows) (*format.Object, error) {
		renders.Add(1)
		if hook != nil {
			hook()
		}
		return format.NewObject().Set("N", format.S(strconv.Itoa(rows.Len()))), nil
	}
	e, err := core.NewEngine(core.DBSource{DB: db}, []*core.CitationView{v}, plainPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return e, &renders
}

// TestCiteCancelDuringRender: canceling the context while the render phase is
// running aborts between tokens — the engine must not render the remaining
// hundreds of tokens of a citation nobody is waiting for. This exercises the
// single-tuple case on purpose: the per-tuple cancellation check alone would
// never fire, so the test proves ctx reaches renderTokenCached itself.
func TestCiteCancelDuringRender(t *testing.T) {
	const rows = 400
	// Control: uncanceled, every distinct token renders.
	ctrl, ctrlRenders := renderHarness(t, rows, nil)
	q := mustQuery(t, `Q(B) :- R(A, B)`)
	if _, err := ctrl.CiteQuery(context.Background(), q, 0, nil); err != nil {
		t.Fatal(err)
	}
	if n := ctrlRenders.Load(); n != rows {
		t.Fatalf("control rendered %d tokens, want %d (one per distinct λ-value)", n, rows)
	}

	for _, mode := range []string{"materialized", "streamed"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e, renders := renderHarness(t, rows, cancel) // first render cancels
			var err error
			if mode == "materialized" {
				_, err = e.CiteQuery(ctx, q, 0, nil)
			} else {
				_, err = e.CiteQuery(ctx, q, 0, func(*core.TupleCitation) error { return nil })
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The in-flight token completes (its rendering is cached and
			// shared); cancellation must fire before the next token starts.
			if n := renders.Load(); n > 2 {
				t.Fatalf("rendered %d tokens after cancel, want at most 2 of %d", n, rows)
			}
		})
	}
}

// TestCiteEachRendersLazily: the streamed pipeline renders each citation
// right before its delivery, so the first tuple reaches the callback before
// later tuples' citations exist — the property /v1/cite/stream builds on.
func TestCiteEachRendersLazily(t *testing.T) {
	const rows = 50
	e, renders := renderHarness(t, rows, nil)
	// Q(A, B) keeps every distinct A, so each output tuple carries its own
	// λ-token and renders exactly once.
	q := mustQuery(t, `Q(A, B) :- R(A, B)`)
	delivered := 0
	_, err := e.CiteQuery(context.Background(), q, 0, func(tc *core.TupleCitation) error {
		delivered++
		if delivered == 1 {
			if n := renders.Load(); n != 1 {
				t.Fatalf("first delivery saw %d tokens rendered, want 1 (lazy render)", n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != rows {
		t.Fatalf("delivered %d tuples, want %d", delivered, rows)
	}
	if n := renders.Load(); n != rows {
		t.Fatalf("rendered %d tokens total, want %d", n, rows)
	}
}

// TestCiteEachMatchesCiteCtxEngine: at the engine level the streamed
// pipeline (CiteEachPrepared) reproduces the materialized one
// (CitePrepared) byte for byte — tuple order, polynomials, kept indexes and
// rendered records — on the paper instance under both the default and the
// plain policy.
func TestCiteEachMatchesCiteCtxEngine(t *testing.T) {
	queries := []string{
		`Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)`,
		`Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)`,
		`Q(F, N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, Af)`,
	}
	for _, polName := range []string{"default", "plain"} {
		pol := core.DefaultPolicy()
		if polName == "plain" {
			pol = plainPolicy()
		}
		e := paperEngine(t, pol)
		for qi, src := range queries {
			t.Run(fmt.Sprintf("%s/q%d", polName, qi), func(t *testing.T) {
				q := mustQuery(t, src)
				want, err := e.CiteQuery(context.Background(), q, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				i := 0
				_, err = e.CiteQuery(context.Background(), q, 0, func(tc *core.TupleCitation) error {
					if i >= len(want.Tuples) {
						return fmt.Errorf("streamed extra tuple %v", tc.Tuple)
					}
					w := want.Tuples[i]
					if tc.Tuple.Key() != w.Tuple.Key() {
						return fmt.Errorf("tuple %d: got %v, want %v", i, tc.Tuple, w.Tuple)
					}
					if got, exp := core.PolyString(tc.Combined), core.PolyString(w.Combined); got != exp {
						return fmt.Errorf("tuple %d polynomial:\n got %s\nwant %s", i, got, exp)
					}
					if got, exp := tc.Rendered.JSON(), w.Rendered.JSON(); got != exp {
						return fmt.Errorf("tuple %d rendering:\n got %s\nwant %s", i, got, exp)
					}
					if len(tc.Kept) != len(w.Kept) || len(tc.PerRewriting) != len(w.PerRewriting) {
						return fmt.Errorf("tuple %d: kept/per-rewriting shape differs", i)
					}
					i++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if i != len(want.Tuples) {
					t.Fatalf("streamed %d tuples, want %d", i, len(want.Tuples))
				}
			})
		}
	}
}

// TestRenderStageOnEveryExit: a citation that ends inside the render loop —
// the context canceled, the sink failing — still closes its render span
// under the cite root, so the trace kept for a slow or abandoned request
// says what its rendering cost.
func TestRenderStageOnEveryExit(t *testing.T) {
	boom := errors.New("boom")
	q := mustQuery(t, `Q(A, B) :- R(A, B)`) // one token per tuple
	for _, tc := range []struct {
		name, mode string
		want       error
		run        func(ctx context.Context, cancel func(), e *core.Engine) error
	}{
		{"cite/cancel", "cite", context.Canceled, func(ctx context.Context, _ func(), e *core.Engine) error {
			_, err := e.CiteQuery(ctx, q, 0, nil) // the first token render cancels
			return err
		}},
		{"stream/cancel-after-first-delivery", "stream", context.Canceled, func(ctx context.Context, cancel func(), e *core.Engine) error {
			_, err := e.CiteQuery(ctx, q, 0, func(*core.TupleCitation) error {
				cancel()
				return nil
			})
			return err
		}},
		{"stream/callback-error", "stream", boom, func(ctx context.Context, _ func(), e *core.Engine) error {
			_, err := e.CiteQuery(ctx, q, 0, func(*core.TupleCitation) error { return boom })
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var hook func()
			if tc.name == "cite/cancel" {
				hook = cancel
			}
			e, _ := renderHarness(t, 50, hook)
			tr := obs.NewTrace()
			if err := tc.run(obs.NewContext(ctx, tr, obs.NoSpan), cancel, e); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			rep := tr.Report()
			if len(rep.Stages) != 1 || rep.Stages[0].Name != obs.StageCite || rep.Stages[0].Attrs["mode"] != tc.mode {
				t.Fatalf("roots %+v, want one cite root in mode %s", rep.Stages, tc.mode)
			}
			renders := 0
			for _, child := range rep.Stages[0].Children {
				if child.Name == obs.StageRender {
					renders++
					if child.DurationNs <= 0 {
						t.Fatalf("render span carries no duration: %+v", child)
					}
				}
			}
			if renders != 1 {
				t.Fatalf("%d render stages under the cite root, want 1: %+v", renders, rep.Stages[0].Children)
			}
		})
	}
}
