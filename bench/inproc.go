package main

import (
	"fmt"
	"time"

	"citare"
	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/shard"
	"citare/internal/storage"
)

// layout is the storage configuration of a served workload.
type layout struct {
	lsm    bool // citesrv -data-dir: LSM-backed views
	shards int  // citesrv -shards n; 0 means unsharded
}

// serverArgs are the citesrv flags that put the server in this layout, on
// an OS-chosen loopback port. Unless traceEvery is set, -slow-threshold 0
// turns off the per-request trace the default threshold allocates for the
// slow-query log.
func (l layout) serverArgs(csvDir, storeDir string, traceEvery bool) []string {
	args := []string{"-addr", "127.0.0.1:0", "-quiet", "-data", csvDir}
	if !traceEvery {
		args = append(args, "-slow-threshold", "0")
	}
	if l.lsm {
		args = append(args, "-data-dir", storeDir)
	}
	if l.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(l.shards))
	}
	return args
}

// inproc is a citation engine built inside the benchmark process in the same
// layout citesrv builds for a workload — the reference of the correctness
// checks is one, and the traced run needs one, because citesrv's layers
// cannot be timed from outside.
type inproc struct {
	citer *citare.CachedCiter

	db      *storage.DB  // in-memory unsharded layout
	sdb     *shard.DB    // in-memory sharded layout
	plain   *storage.DB  // sharded layout: the unsharded data sdb was partitioned from
	persist *backend.LSM // LSM layout
}

// openInproc builds the engine for a layout. The in-memory layouts hold db's
// contents (the unsharded one adopts db itself, the sharded one partitions a
// copy); the LSM layout opens storeDir — a store citesrv left behind is
// recovered, an empty one is for the caller to load.
func openInproc(l layout, db *storage.DB, storeDir string) (*inproc, error) {
	var (
		p   = &inproc{}
		c   *citare.Citer
		err error
	)
	switch {
	case l.lsm:
		p.persist, err = backend.OpenLSM(storeDir, gtopdb.Schema(), lsm.Options{})
		if err != nil {
			return nil, err
		}
		c, err = citare.NewBackendFromProgram(p.persist, gtopdb.ViewsProgram, gtopdbOptions()...)
	case l.shards > 1:
		p.sdb, err = shard.FromDB(db, l.shards)
		if err != nil {
			return nil, err
		}
		p.plain = db
		// citesrv arms sharded engines with the resilient scatter-gather
		// driver by default; these are its flag defaults.
		c, err = citare.NewShardedFromProgram(p.sdb, gtopdb.ViewsProgram,
			append(gtopdbOptions(), citare.WithResilience(citare.ResilienceConfig{
				AttemptTimeout:   2 * time.Second,
				MaxAttempts:      3,
				BreakerThreshold: 3,
				BreakerCooldown:  5 * time.Second,
			}))...)
	default:
		p.db = db
		c, err = citare.NewFromProgram(db, gtopdb.ViewsProgram, gtopdbOptions()...)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	p.citer = citare.NewCached(c)
	return p, nil
}

func (p *inproc) close() error {
	if p.persist != nil {
		return p.persist.Close()
	}
	return nil
}

// seedBackend loads db into an empty backend and commits it as version 1,
// as citesrv does on the first boot of a -data-dir.
func seedBackend(b backend.Backend, db *storage.DB) error {
	for _, rs := range db.Schema().Relations() {
		var ierr error
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			ierr = b.Insert(rs.Name, t...)
			return ierr == nil
		})
		if ierr != nil {
			return ierr
		}
	}
	_, err := b.Commit("initial load")
	return err
}

func liveTuples(s *lsm.Store) int {
	n := 0
	for _, c := range s.Stats().Live {
		n += c
	}
	return n
}
