// Package golden compares an experiment driver's stdout with a file
// committed under the driver's testdata directory.
package golden

import (
	"io"
	"os"
	"strings"
	"testing"
)

// Run checks one driver invocation in a subtest named after its
// arguments. produce writes what `go run ./cmd/<driver> <args>` prints;
// it must return nil, and its output must equal testdata/file byte for
// byte. On a mismatch Run reports the first differing line and the
// command that regenerates the file. A regenerated file is committed
// only together with a CHANGES.md line that shows its diff and says why
// it moved.
func Run(t *testing.T, file, driver string, args []string, produce func(w io.Writer) error) {
	t.Helper()
	name := "defaults"
	if len(args) > 0 {
		name = strings.Join(args, " ")
	}
	t.Run(name, func(t *testing.T) {
		var b strings.Builder
		if err := produce(&b); err != nil {
			t.Fatal(err)
		}
		check(t, b.String(), file, driver, args)
	})
}

// check fails t unless got equals testdata/file byte for byte.
func check(t *testing.T, got, file, driver string, args []string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	cmd := strings.Join(append([]string{"./cmd/" + driver}, args...), " ")
	t.Errorf("%s: output differs from testdata/%s at line %d:\n got %q\nwant %q\nregenerate: go run %s > cmd/%s/testdata/%s",
		cmd, file, i+1, line(g, i), line(w, i), cmd, driver, file)
}

// line is lines[i], or a marker past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}
