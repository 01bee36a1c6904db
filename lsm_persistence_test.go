package citare

// Durable time-travel acceptance for the LSM backend: the citegraph
// workload is loaded into a persistent store along with follow-up versioned
// commits, the store is closed and reopened from disk with no reload, and
// everything observable (head citations, AsOf reads at every committed
// version, sharded scatter-gather, streaming, resilient evaluation) is
// byte-identical to plain in-memory Citers over storage.DB snapshots taken
// at each commit of the same history — a reference with no versioned store
// in it.
//
// Scale follows the repo's stress convention: ScaleSmall in ordinary test
// runs (CI included — it fits -race), ScaleStress (1.05M tuples, the
// acceptance walk) when CITARE_LSM_STRESS is set — the stress instance
// takes minutes and would trip the per-package test timeout if always on:
//
//	CITARE_LSM_STRESS=1 go test -run TestLSMDurableCitegraphParity -timeout 60m .

import (
	"fmt"
	"os"
	"testing"

	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/lsm"
	"citare/internal/shard"
	"citare/internal/storage"
)

// durableAnchor is the work the update batches cite and the AsOf probes
// anchor on: mid-popularity, so its incoming list changes at every version
// without the hot key's render, whose citation lists the hot work's whole
// reference list once per result tuple (quadratic in its in-degree, minutes
// at stress scale).
func durableAnchor(cfg citegraph.Config) string {
	return citegraph.WorkID(cfg.Works / 120)
}

// durableWorkload covers the citegraph query shapes: hot- and tail-key
// resolution, mid-popularity incoming/co-citation probes, and the deep joins
// — every shape, none quadratic in the Zipf head's in-degree.
func durableWorkload(cfg citegraph.Config) []mixedQuery {
	hot, mid, tail := citegraph.HotWork(), durableAnchor(cfg), citegraph.WorkID(cfg.Works-1)
	return []mixedQuery{
		{false, citegraph.ResolutionQuery(hot)},
		{false, citegraph.ResolutionQuery(tail)},
		{false, citegraph.IncomingQuery(mid)},
		{false, citegraph.CoCitationQuery(mid)},
		{false, citegraph.ChainQuery(tail)},
		{false, citegraph.AuthorProvenanceQuery(citegraph.AuthorID(7))},
		{false, citegraph.VenueRollupQuery(citegraph.VenueID(3))},
	}
}

// citegraphCommit is one committed version of the durable history: its
// number and label in the backend, and the reference database as of it.
type citegraphCommit struct {
	version uint64
	label   string
	ref     *storage.DB
}

// applyCitegraphHistory loads the generated citegraph base instance into b
// as version 1, then applies two late-breaking update batches — fresh works
// citing the anchor work, with one reference retracted in the second batch
// — committing after each. Every write also lands in the generated
// storage.DB, and each commit keeps a snapshot of it as the reference for
// that version.
func applyCitegraphHistory(t *testing.T, b backend.Backend, cfg citegraph.Config) []citegraphCommit {
	t.Helper()
	db := citegraph.Generate(cfg)
	for _, rs := range db.Schema().Relations() {
		var ierr error
		db.Relation(rs.Name).Scan(func(tu storage.Tuple) bool {
			ierr = b.Insert(rs.Name, tu...)
			return ierr == nil
		})
		if ierr != nil {
			t.Fatalf("load %s: %v", rs.Name, ierr)
		}
	}
	var history []citegraphCommit
	commit := func(label string) {
		v, err := b.Commit(label)
		if err != nil {
			t.Fatalf("commit %s: %v", label, err)
		}
		history = append(history, citegraphCommit{version: v, label: label, ref: db.Snapshot()})
	}
	anchor := durableAnchor(cfg)
	commit("base")
	for batch := 0; batch < 2; batch++ {
		for j := 0; j < 5; j++ {
			w := citegraph.WorkID(cfg.Works + batch*5 + j)
			for _, ins := range [][]string{
				{"Work", w, "Late-breaking " + w, citegraph.VenueID(0), "2017"},
				{"Wrote", citegraph.AuthorID(j), w},
				{"Cites", w, anchor},
			} {
				if err := b.Insert(ins[0], ins[1:]...); err != nil {
					t.Fatalf("batch %d insert %v: %v", batch, ins, err)
				}
				db.MustInsert(ins[0], ins[1:]...)
			}
		}
		if batch == 1 {
			// Retract one of the first batch's references: AsOf must see it
			// at versions 2..2 only.
			retract := []string{citegraph.WorkID(cfg.Works), anchor}
			ok, err := b.Delete("Cites", retract...)
			if err != nil || !ok {
				t.Fatalf("retract = (%v, %v), want live delete", ok, err)
			}
			if ok, err := db.Delete("Cites", retract...); err != nil || !ok {
				t.Fatalf("reference retract = (%v, %v), want live delete", ok, err)
			}
		}
		commit(fmt.Sprintf("batch-%d", batch+1))
	}
	return history
}

// refCitegraphCiter builds a plain in-memory Citer over a reference
// snapshot with the citegraph policy library.
func refCitegraphCiter(t *testing.T, db *storage.DB) *Citer {
	t.Helper()
	c, err := NewFromProgram(db, citegraph.ViewsProgram,
		WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// backendCitegraphCiter builds a citer over any backend with the citegraph
// policy library.
func backendCitegraphCiter(t *testing.T, b backend.Backend) *Citer {
	t.Helper()
	c, err := NewBackendFromProgram(b, citegraph.ViewsProgram,
		WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLSMDurableCitegraphParity is the acceptance walk: load, restart,
// verify everything against the plain in-memory reference.
func TestLSMDurableCitegraphParity(t *testing.T) {
	cfg := citegraph.ScaleSmall()
	opt := lsm.Options{}
	if os.Getenv("CITARE_LSM_STRESS") != "" {
		cfg = citegraph.ScaleStress() // 1,050,200 base tuples
		opt.MemtableBytes = 64 << 20  // fewer flush pauses during the bulk load
	}
	dir := t.TempDir()

	ldb, err := backend.OpenLSM(dir, citegraph.Schema(cfg), opt)
	if err != nil {
		t.Fatal(err)
	}
	history := applyCitegraphHistory(t, ldb, cfg)
	if err := ldb.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen purely from disk: nil schema means even the schema comes from
	// the manifest — nothing is regenerated or reloaded.
	re, err := backend.OpenLSM(dir, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var versions []uint64
	for _, c := range history {
		versions = append(versions, c.version)
	}
	if got := re.Versions(); fmt.Sprint(got) != fmt.Sprint(versions) {
		t.Fatalf("reopened store lists versions %v, history committed %v", got, versions)
	}

	// Nothing was written after the last commit: its snapshot is the head.
	base := refCitegraphCiter(t, history[len(history)-1].ref)
	durable, err := NewBackendFromProgram(re, citegraph.ViewsProgram,
		WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		t.Fatal(err)
	}

	// Head citations: byte-identical through the reopened store.
	for _, q := range durableWorkload(cfg) {
		want, err := cite(base, q)
		if err != nil {
			t.Fatalf("reference %s: %v", q.src, err)
		}
		got, err := cite(durable, q)
		if err != nil {
			t.Fatalf("lsm %s: %v", q.src, err)
		}
		if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
			t.Fatalf("head %s:\n got %s\nwant %s", q.src, g, w)
		}
	}

	// Time travel: every committed version answers identically, served
	// straight from the version-stamped persistent keys. The incoming-cites
	// probe on the anchor work changes at every version (insertions, then a
	// retraction), so these fingerprints genuinely differ across versions.
	asOfQ := mixedQuery{false, citegraph.IncomingQuery(durableAnchor(cfg))}
	seen := map[string]bool{}
	for _, c := range history {
		if got := re.Label(c.version); got != c.label {
			t.Fatalf("label(%d) = %q, want %q", c.version, got, c.label)
		}
		lc, err := durable.AsOf(c.version)
		if err != nil {
			t.Fatalf("lsm AsOf(%d): %v", c.version, err)
		}
		want, err := cite(refCitegraphCiter(t, c.ref), asOfQ)
		if err != nil {
			t.Fatalf("reference at %d cite: %v", c.version, err)
		}
		got, err := cite(lc, asOfQ)
		if err != nil {
			t.Fatalf("lsm AsOf(%d) cite: %v", c.version, err)
		}
		w := citationFingerprint(t, want)
		if g := citationFingerprint(t, got); g != w {
			t.Fatalf("AsOf(%d):\n got %s\nwant %s", c.version, g, w)
		}
		seen[w] = true
	}
	if len(seen) != len(history) {
		t.Fatalf("the AsOf probe reads %d distinct citations over %d versions: it does not tell them apart", len(seen), len(history))
	}

	// Sharded scatter-gather over the persistent head: hash-partition a
	// snapshot view straight off the store and compare against the plain
	// reference, with resilience armor on (fault-free runs must be
	// invisible and full-coverage).
	v, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.FromView(re.Schema(), v, 3)
	v.Release()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedFromProgram(sdb, citegraph.ViewsProgram,
		WithNeutralCitation(citegraph.DatasetCitation()),
		WithResilience(ResilienceConfig{Seed: 11}))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range durableWorkload(cfg) {
		want, err := cite(base, q)
		if err != nil {
			t.Fatalf("reference %s: %v", q.src, err)
		}
		got, err := cite(sharded, q)
		if err != nil {
			t.Fatalf("sharded-lsm %s: %v", q.src, err)
		}
		if g, w := citationFingerprint(t, got), citationFingerprint(t, want); g != w {
			t.Fatalf("sharded %s:\n got %s\nwant %s", q.src, g, w)
		}
	}

	// Streaming over the persistent store: streamed bytes match the
	// materialized citation.
	for qi, mq := range durableWorkload(cfg) {
		t.Run(fmt.Sprintf("stream/q%d", qi), func(t *testing.T) {
			assertStreamMatchesCite(t, durable, Request{Datalog: mq.src})
		})
	}
}
