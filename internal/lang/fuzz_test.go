package lang

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppm/internal/bench"
)

// FuzzFrontEnd feeds the .ppm front end arbitrary source, seeded from
// every .ppm file in the repository: Parse, then Analyze, then, when
// Check accepts the program, GenerateGo must never panic.
func FuzzFrontEnd(f *testing.F) {
	root, err := bench.RepoRoot(".")
	if err != nil {
		f.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".ppm") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			f.Add(string(src))
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		Analyze(prog)
		if Check(prog) == nil {
			if _, err := GenerateGo(prog); err != nil {
				t.Fatalf("GenerateGo rejects a program Check accepts: %v", err)
			}
		}
	})
}
