package eval_test

// Plan.Each's contract in every execution configuration: the same multiset of
// frames as the sequential enumeration, and no delivery after fn has
// returned an error. (Cancellation: cancel_test.go.)

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"citare/internal/cq"
	"citare/internal/eval"
)

// enumerate compiles q over view and counts each distinct valuation its
// enumeration delivers, spelled by variable name (eval.FrameKey).
func enumerate(view eval.DBView, q *cq.Query, opts eval.Options) (map[string]int, error) {
	plan, err := eval.Compile(view, q)
	if err != nil {
		return nil, err
	}
	vars := plan.Vars()
	got := make(map[string]int)
	err = plan.Each(context.Background(), opts, func(frame []string) error {
		got[eval.FrameKey(vars, frame)]++
		return nil
	})
	return got, err
}

// frameMultiset is enumerate for an enumeration that must succeed.
func frameMultiset(t *testing.T, view eval.DBView, q *cq.Query, opts eval.Options) map[string]int {
	t.Helper()
	got, err := enumerate(view, q, opts)
	if err != nil {
		t.Fatalf("enumeration failed: %v", err)
	}
	return got
}

// TestEachFrameParity: every strategy delivers exactly the sequential
// enumeration's frame multiset.
func TestEachFrameParity(t *testing.T) {
	for _, st := range strategies(t) {
		t.Run(st.name, func(t *testing.T) {
			want := frameMultiset(t, eval.DBViewOf(st.base), st.q, eval.Options{Parallel: 1})
			if len(want) == 0 {
				t.Fatal("empty reference enumeration")
			}
			if got := frameMultiset(t, st.view, st.q, st.opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("frame multiset diverges from sequential: %d vs %d distinct frames", len(got), len(want))
			}
		})
	}
}

// TestEachErrorStopsDelivery: once fn returns an error, no strategy invokes
// it again, Each returns that error, and its workers are gone.
func TestEachErrorStopsDelivery(t *testing.T) {
	boom := errors.New("boom")
	for _, st := range strategies(t) {
		t.Run(st.name, func(t *testing.T) {
			plan, err := eval.Compile(st.view, st.q)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			calls := 0
			err = plan.Each(context.Background(), st.opts, func([]string) error {
				if calls++; calls == 3 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if calls != 3 {
				t.Fatalf("fn called %d times after erroring on call 3", calls)
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestEvalCtxMaxTuples: the set-semantics evaluation aborts with
// ErrTupleLimit once the bound is exceeded, in every strategy, and a bound
// the result fits under changes nothing.
func TestEvalCtxMaxTuples(t *testing.T) {
	for _, st := range strategies(t) {
		t.Run(st.name, func(t *testing.T) {
			plan, err := eval.Compile(st.view, st.q)
			if err != nil {
				t.Fatal(err)
			}
			full, err := plan.EvalCtx(context.Background(), st.opts)
			if err != nil || len(full.Tuples) <= 5 {
				t.Fatalf("reference evaluation: %d tuples, %v", len(full.Tuples), err)
			}
			opts := st.opts
			opts.MaxTuples = 5
			if _, err := plan.EvalCtx(context.Background(), opts); !errors.Is(err, eval.ErrTupleLimit) {
				t.Fatalf("err = %v, want ErrTupleLimit", err)
			}
			opts.MaxTuples = len(full.Tuples)
			if res, err := plan.EvalCtx(context.Background(), opts); err != nil || !reflect.DeepEqual(res.Tuples, full.Tuples) {
				t.Fatalf("bound equal to the result size: %v, tuples equal %v", err, err == nil && reflect.DeepEqual(res.Tuples, full.Tuples))
			}
		})
	}
}

// TestEvalEachTupleIndex: EvalEach returns EvalCtx's result, hands fn every
// frame of the enumeration, and the index beside a frame names, through
// order, the sorted tuple the frame's head spells — in every strategy.
func TestEvalEachTupleIndex(t *testing.T) {
	for _, st := range strategies(t) {
		t.Run(st.name, func(t *testing.T) {
			plan, err := eval.Compile(st.view, st.q)
			if err != nil {
				t.Fatal(err)
			}
			full, err := plan.EvalCtx(context.Background(), st.opts)
			if err != nil {
				t.Fatal(err)
			}
			head := make([]eval.Src, len(st.q.Head))
			for i, term := range st.q.Head {
				if head[i], err = plan.TermSrc(term); err != nil {
					t.Fatal(err)
				}
			}
			heads := map[int][]string{} // first-seen index → the heads of its frames
			frames := 0
			res, order, err := plan.EvalEach(context.Background(), st.opts, func(f []string, tuple int) error {
				frames++
				for _, s := range head {
					heads[tuple] = append(heads[tuple], s.Value(f))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, full) {
				t.Fatal("EvalEach's result differs from EvalCtx's")
			}
			want := 0
			for _, n := range frameMultiset(t, eval.DBViewOf(st.base), st.q, eval.Options{Parallel: 1}) {
				want += n
			}
			if frames != want || len(order) != len(res.Tuples) || len(heads) != len(res.Tuples) {
				t.Fatalf("%d frames, want %d; order of %d and %d indices for %d tuples", frames, want, len(order), len(heads), len(res.Tuples))
			}
			for s, tu := range res.Tuples {
				vals := heads[order[s]]
				for i := 0; i < len(vals); i += len(tu) {
					if !reflect.DeepEqual([]string(tu), vals[i:i+len(tu)]) {
						t.Fatalf("a frame of index %d spells %q, its sorted tuple is %q", order[s], vals[i:i+len(tu)], tu)
					}
				}
			}
		})
	}
}
