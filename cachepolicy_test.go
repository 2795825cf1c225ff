package ros

// Cache-ownership gate: after the Engine/Session refactor, memoized state
// lives in resource handles (dsp.PlanSet, radar.Session, scene.ResponseCache,
// engine.Engine), and the only package-level cache instances allowed are the
// default handles in each package's cache.go. This test walks every
// non-test source file in the module and fails on any new package-level cache
// declaration outside that allowlist, so the global-cache pattern cannot
// creep back in.

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

// cacheShimFiles are the files allowed to declare package-level cache
// instances: exactly the default handles that make up engine.Default.
var cacheShimFiles = map[string]bool{
	"internal/dsp/cache.go":   true,
	"internal/radar/cache.go": true,
	"internal/scene/cache.go": true,
}

// cachePattern matches the constructors and types that hold memoized cache
// state. sync.Pool is deliberately absent: buffer pools recycle scratch
// memory without retaining entries, so they are not caches under this
// policy.
var cachePattern = regexp.MustCompile(
	`sync\.Map|NewCountedMap|NewPlanSet|NewSession|NewResponseCache`)

func TestNoPackageLevelCachesOutsideShims(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if cacheShimFiles[filepath.ToSlash(path)] {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			start := fset.Position(gd.Pos()).Offset
			end := fset.Position(gd.End()).Offset
			if m := cachePattern.FindString(string(src[start:end])); m != "" {
				t.Errorf("%s:%d: package-level cache declaration (%s) outside the default handles; own it through an Engine/Session handle instead",
					path, fset.Position(gd.Pos()).Line, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
