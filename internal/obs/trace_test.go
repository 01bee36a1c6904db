package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTraceTreeAndAttrs(t *testing.T) {
	tr := NewTrace()
	root := tr.Start(NoSpan, StageCite)
	tr.SetStr(root, "mode", "cite")
	ev := tr.Start(root, StageEval)
	tr.SetInt(ev, "tuples", 3)
	sh := tr.Start(ev, "shard")
	tr.SetInt(sh, "shard", 1)
	tr.End(sh)
	tr.End(ev)
	tr.AddInt(root, "hits", 2)
	tr.AddInt(root, "hits", 3)
	tr.EndWith(tr.Start(root, StageRender), 5*time.Millisecond)
	tr.End(root)

	rep := tr.Report()
	if len(rep.Stages) != 1 || rep.Stages[0].Name != StageCite {
		t.Fatalf("roots: %+v", rep.Stages)
	}
	cite := rep.Stages[0]
	if cite.Attrs["mode"] != "cite" {
		t.Fatalf("mode attr: %v", cite.Attrs)
	}
	if cite.Attrs["hits"] != int64(5) {
		t.Fatalf("AddInt did not accumulate: %v", cite.Attrs["hits"])
	}
	if len(cite.Children) != 2 {
		t.Fatalf("children: %+v", cite.Children)
	}
	eval := rep.Find(StageEval)
	if eval == nil || eval.Attrs["tuples"] != int64(3) {
		t.Fatalf("eval span: %+v", eval)
	}
	if len(eval.Children) != 1 || eval.Children[0].Name != "shard" {
		t.Fatalf("shard span not nested under eval: %+v", eval.Children)
	}
	render := rep.Find(StageRender)
	if render == nil || render.DurationNs != int64(5*time.Millisecond) {
		t.Fatalf("recorded span: %+v", render)
	}
	if cite.DurationNs <= 0 {
		t.Fatalf("root duration %d", cite.DurationNs)
	}
	totals := rep.StageTotalsNs()
	if totals[StageRender] != int64(5*time.Millisecond) || totals[StageEval] <= 0 {
		t.Fatalf("totals: %v", totals)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	id := tr.Start(NoSpan, "x")
	if id != NoSpan {
		t.Fatalf("nil Start returned %d", id)
	}
	tr.End(id)
	tr.SetStr(id, "k", "v")
	tr.SetInt(id, "k", 1)
	tr.AddInt(id, "k", 1)
	tr.EndWith(id, time.Second)
	if tr.Len() != 0 {
		t.Fatal("nil trace recorded spans")
	}
	if tr.Report() != nil {
		t.Fatal("nil trace produced a report")
	}
}

func TestTraceEndTwiceKeepsFirst(t *testing.T) {
	tr := NewTrace()
	id := tr.Start(NoSpan, "x")
	tr.End(id)
	first := tr.Report().Stages[0].DurationNs
	time.Sleep(time.Millisecond)
	tr.End(id)
	if again := tr.Report().Stages[0].DurationNs; again != first {
		t.Fatalf("second End changed duration: %d -> %d", first, again)
	}
}

// TestTraceConcurrentSpans mirrors scatter-gather: many workers record
// sibling spans into one trace concurrently; run with -race.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start(NoSpan, StageEval)
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := tr.Start(root, "shard")
				tr.SetInt(sp, "shard", int64(i))
				tr.AddInt(root, "frames", 1)
				tr.End(sp)
			}
		}(i)
	}
	wg.Wait()
	tr.End(root)
	rep := tr.Report()
	ev := rep.Stages[0]
	if len(ev.Children) != workers*50 {
		t.Fatalf("shard spans: %d, want %d", len(ev.Children), workers*50)
	}
	if ev.Attrs["frames"] != int64(workers*50) {
		t.Fatalf("frames attr: %v", ev.Attrs["frames"])
	}
}

func TestContextCarriage(t *testing.T) {
	if tr, sp := FromContext(context.Background()); tr != nil || sp != NoSpan {
		t.Fatal("empty context carried a trace")
	}
	tr := NewTrace()
	id := tr.Start(NoSpan, "root")
	ctx := NewContext(context.Background(), tr, id)
	got, sp := FromContext(ctx)
	if got != tr || sp != id {
		t.Fatalf("FromContext: %v %v", got, sp)
	}
}
