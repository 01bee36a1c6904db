package citare

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests reads the CI workflow: every alternative of a
// -run or -fuzz pattern of a `go test` step must match a Test or Fuzz
// function of the packages that step tests. Otherwise a renamed or deleted
// test drops out of its step silently, and the step still passes. An
// alternative that matches the empty name (-run '^$') selects nothing on
// purpose and is skipped.
func TestCIRunPatternsMatchTests(t *testing.T) {
	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{} // package directory → its Test and Fuzz functions
	steps := 0
	for _, line := range strings.Split(string(wf), "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "run: ")
		if !strings.HasPrefix(line, "go test ") {
			continue
		}
		var patterns, pkgs []string
		args := strings.Fields(strings.ReplaceAll(line, "'", ""))[2:]
		for i := 0; i < len(args); i++ {
			switch arg := args[i]; {
			case (arg == "-run" || arg == "-fuzz") && i+1 < len(args):
				i++
				patterns = append(patterns, args[i])
			case strings.HasPrefix(arg, "-run=") || strings.HasPrefix(arg, "-fuzz="):
				patterns = append(patterns, arg[strings.IndexByte(arg, '=')+1:])
			case !strings.HasPrefix(arg, "-"):
				pkgs = append(pkgs, arg)
			}
		}
		var funcs []string
		for _, dir := range packageDirs(t, pkgs) {
			if _, ok := names[dir]; !ok {
				names[dir] = testFuncs(t, dir)
			}
			funcs = append(funcs, names[dir]...)
		}
		for _, pattern := range patterns {
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("%s: pattern %q: %v", line, alt, err)
				}
				if re.MatchString("") {
					continue
				}
				found := false
				for _, name := range funcs {
					if found = re.MatchString(name); found {
						break
					}
				}
				if !found {
					t.Errorf("%s: %q matches no Test or Fuzz function in %v", line, alt, pkgs)
				}
			}
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("the workflow has no go test step")
	}
}

// alternatives splits a test pattern's top level — before any '/' that
// selects subtests — at the '|' outside parentheses and brackets.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|', '/':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
				if r == '/' {
					return out
				}
			}
		}
	}
	return append(out, pattern[start:])
}

// packageDirs resolves go test package arguments — "." and "./dir/" or a
// "./..." pattern — to the directories below the repository root.
func packageDirs(t *testing.T, pkgs []string) []string {
	var dirs []string
	for _, pkg := range pkgs {
		root, all := strings.CutSuffix(pkg, "/...")
		root = filepath.Clean(root)
		if !all {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// testFuncs lists the top-level Test and Fuzz functions of the test files in
// dir.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				out = append(out, fn.Name.Name)
			}
		}
	}
	return out
}
