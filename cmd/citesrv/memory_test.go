package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"citare"
	"citare/internal/backend"
	"citare/internal/gtopdb"
	"citare/internal/lsm"
	"citare/internal/storage"
)

// memoryServer boots the in-memory server main boots for -data csvDir
// -shards n.
func memoryServer(t *testing.T, csvDir string, n int) *server {
	t.Helper()
	db, sdb, err := openMemory(csvDir, n)
	if err != nil {
		t.Fatal(err)
	}
	if (sdb != nil) != (n > 1) || (db != nil) != (n <= 1) {
		t.Fatalf("shards=%d: openMemory built unsharded %v, sharded %v", n, db != nil, sdb != nil)
	}
	opt := citare.WithNeutralCitation(gtopdb.DatabaseCitation())
	var citer *citare.Citer
	if sdb != nil {
		citer, err = citare.NewShardedFromProgram(sdb, gtopdb.ViewsProgram, opt)
	} else {
		citer, err = citare.NewFromProgram(db, gtopdb.ViewsProgram, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &server{citer: citare.NewCached(citer), viewsProgram: gtopdb.ViewsProgram, shards: n}
}

func writeCSV(t *testing.T, dir, rel, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, rel+".csv"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMemoryBootParity: a CSV set loaded straight into 4 shards
// answers /v1/cite byte for byte like the same set loaded unsharded, and so
// does the paper instance.
func TestShardedMemoryBootParity(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families, cfg.Persons = 150, 90
	db := gtopdb.Generate(cfg)
	csvDir := t.TempDir()
	for _, rs := range db.Schema().Relations() {
		var b strings.Builder
		if err := storage.DumpCSV(db, rs.Name, &b); err != nil {
			t.Fatal(err)
		}
		writeCSV(t, csvDir, rs.Name, b.String())
	}
	bodies := []string{
		`{"sql": "SELECT FName FROM Family"}`,
		`{"sql": "SELECT f.FName FROM Family f, FamilyIntro i WHERE f.FID = i.FID AND f.Type = 'gpcr'"}`,
		`{"datalog": "Q(N, Pn) :- Family(F, N, Ty), FC(F, P), Person(P, Pn, A)", "format": "bibtex"}`,
		`{"datalog": "Q(N, Pn) :- Family(F, N, Ty), FIC(F, P), Person(P, Pn, A), Ty = \"type-03\""}`,
	}
	respond := func(s *server, body string) (string, int) {
		w := httptest.NewRecorder()
		s.handleCite(w, httptest.NewRequest(http.MethodPost, "/v1/cite", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		var resp citeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return w.Body.String(), len(resp.Rows)
	}
	for _, dir := range []string{csvDir, ""} {
		flat, sharded := memoryServer(t, dir, 1), memoryServer(t, dir, 4)
		rows := 0
		for _, body := range bodies {
			want, n := respond(flat, body)
			if got, _ := respond(sharded, body); got != want {
				t.Fatalf("-data %q %s: 4 shards answered\n%s\nunsharded\n%s", dir, body, got, want)
			}
			rows += n
		}
		if rows == 0 {
			t.Fatalf("-data %q: every answer empty", dir)
		}
	}
}

// TestShardedMemoryBootRejectsKeyClash: two rows with one key fail the
// sharded boot as they fail the unsharded one, with the same error.
func TestShardedMemoryBootRejectsKeyClash(t *testing.T) {
	csvDir := t.TempDir()
	writeCSV(t, csvDir, "Family", "FID,FName,Type\nf1,One,gpcr\nf2,Two,gpcr\nf1,Other,lgic\n")
	_, _, want := openMemory(csvDir, 1)
	if want == nil || !strings.Contains(want.Error(), "duplicate key [f1]") {
		t.Fatalf("unsharded boot: err = %v, want a duplicate key f1", want)
	}
	for _, n := range []int{2, 4} {
		if _, _, err := openMemory(csvDir, n); err == nil || err.Error() != want.Error() {
			t.Fatalf("shards=%d: err = %v, want %v", n, err, want)
		}
	}
}

// TestRepeatedHeaderColumnFailsBoot: a header naming a column twice fails
// every boot, and a first boot on -data-dir commits nothing.
func TestRepeatedHeaderColumnFailsBoot(t *testing.T) {
	csvDir := t.TempDir()
	writeCSV(t, csvDir, "Family", "FID,FID,Type\n1,2,gpcr\n")
	for _, n := range []int{1, 4} {
		if _, _, err := openMemory(csvDir, n); err == nil || !strings.Contains(err.Error(), `repeated column "FID"`) {
			t.Fatalf("shards=%d: err = %v, want a repeated column FID", n, err)
		}
	}
	dir := t.TempDir()
	if pers, err := openStore(dir, csvDir); err == nil {
		pers.Close()
		t.Fatal("a boot on a repeated header column seeded the store")
	} else if !strings.Contains(err.Error(), `repeated column "FID"`) {
		t.Fatalf("seed error %q does not name the repeated column", err)
	}
	failed, err := backend.OpenLSM(dir, nil, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer failed.Close()
	if live, versions := failed.Store().Stats().Live["Family"], failed.Versions(); live != 0 || len(versions) != 0 {
		t.Fatalf("the failed seed left %d live families and versions %v, want none", live, versions)
	}
}
