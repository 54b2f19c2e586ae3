package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirFixture moves the test into the CLI fixture module; run() resolves
// patterns and relativizes paths against the working directory.
func chdirFixture(t *testing.T) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestJSONGoldenOutput pins the machine interface: stable field order,
// relativized paths, sorted findings, exit 1.
func TestJSONGoldenOutput(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	chdirFixture(t)
	code, stdout, stderr := runCLI(t, "-format", "json", "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on findings, got %d (stderr: %s)", code, stderr)
	}
	if stdout != string(golden) {
		t.Errorf("JSON output drifted from golden:\ngot:\n%s\nwant:\n%s", stdout, golden)
	}
}

func TestExitZeroOnCleanPackage(t *testing.T) {
	chdirFixture(t)
	code, stdout, stderr := runCLI(t, "-format", "json", "./cleanpkg/...")
	if code != 0 {
		t.Fatalf("want exit 0 on clean package, got %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, `"count": 0`) {
		t.Errorf("clean run should report count 0, got:\n%s", stdout)
	}
}

// TestExitTwoTaxonomy covers the usage/load-error class.
func TestExitTwoTaxonomy(t *testing.T) {
	chdirFixture(t)
	cases := []struct {
		name string
		args []string
	}{
		{"unknown analyzer", []string{"-only", "nosuch", "./..."}},
		{"unknown format", []string{"-format", "xml", "./..."}},
		{"no packages matched", []string{"./nosuchdir/..."}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
	}
	for _, tc := range cases {
		if code, _, _ := runCLI(t, tc.args...); code != 2 {
			t.Errorf("%s: want exit 2, got %d", tc.name, code)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list: want exit 0, got %d", code)
	}
	for _, name := range []string{
		"randsource", "maporder", "uncheckederr", "narrowcast",
		"seedflow", "snapshotfields", "goroutinectx", "atomicmix",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
}
