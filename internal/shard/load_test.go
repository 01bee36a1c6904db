package shard_test

import (
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"citare/internal/gtopdb"
	"citare/internal/shard"
	"citare/internal/storage"
)

// writeCSVDir writes every relation of db to <dir>/<Relation>.csv, with its
// first row repeated at the end, so that a load meets a duplicate tuple.
func writeCSVDir(t *testing.T, db *storage.DB, dir string) {
	t.Helper()
	for _, rs := range db.Schema().Relations() {
		f, err := os.Create(filepath.Join(dir, rs.Name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		w := csv.NewWriter(f)
		rows := db.Relation(rs.Name).Tuples()
		if len(rows) > 0 {
			rows = append(rows, rows[0])
		}
		w.Write(rs.ColNames())
		for _, r := range rows {
			w.Write(r)
		}
		w.Flush()
		if err := errors.Join(w.Error(), f.Close()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadDirMatchesFromDB: loading a CSV set straight into n shards puts
// every tuple in the part, and at the position within it, that
// partitioning the unsharded load puts it.
func TestLoadDirMatchesFromDB(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families, cfg.Persons = 120, 80
	dir := t.TempDir()
	writeCSVDir(t, gtopdb.Generate(cfg), dir)
	flat := storage.NewDB(gtopdb.Schema())
	total, err := storage.LoadDir(flat, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 7} {
		want, err := shard.FromDB(flat, n)
		if err != nil {
			t.Fatal(err)
		}
		got := shard.New(gtopdb.Schema(), n)
		if m, err := storage.LoadDir(got, dir); err != nil || m != total {
			t.Fatalf("n=%d: LoadDir = %d, %v; want %d", n, m, err, total)
		}
		for i := range n {
			for _, rs := range gtopdb.Schema().Relations() {
				g := got.Part(i).Relation(rs.Name).Tuples()
				w := want.Part(i).Relation(rs.Name).Tuples()
				if !slices.EqualFunc(g, w, slices.Equal) {
					t.Fatalf("n=%d part %d %s: %d tuples %v, want %d %v", n, i, rs.Name, len(g), g, len(w), w)
				}
			}
		}
	}
}

// TestGtopdbKeysHoldShardKey: every relation's primary key — every column
// when it declares none — contains its shard-key column, so a key clash
// always lands in one part and each part's key check is a global one.
func TestGtopdbKeysHoldShardKey(t *testing.T) {
	for _, rs := range gtopdb.Schema().Relations() {
		key := rs.Key
		if len(key) == 0 {
			key = rs.ColNames()
		}
		if sk := rs.Cols[rs.ShardKeyIndex()].Name; !slices.Contains(key, sk) {
			t.Errorf("%s: key %v does not contain shard key %s", rs.Name, key, sk)
		}
	}
}
