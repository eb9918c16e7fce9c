package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCapture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	path := writeCapture(t, "b.txt", `
goos: linux
BenchmarkDecode/dict/512-8   	     300	      2291 ns/op	 894.02 MB/s	       0 B/op	       0 allocs/op
BenchmarkDecode/dict/512-8   	     300	      2309 ns/op	 890.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkUnpack              	      20	     47952 ns/op	  19.10 MB/s
PASS
ok  	apbcc/internal/compress	0.1s
`)
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if got["BenchmarkDecode/dict/512"] != 2291 {
		t.Errorf("min ns/op = %v, want 2291 (min of repeated rows)", got["BenchmarkDecode/dict/512"])
	}
	if got["BenchmarkUnpack"] != 47952 {
		t.Errorf("BenchmarkUnpack = %v", got["BenchmarkUnpack"])
	}
}

func TestParseBenchStripsGomaxprocsSuffix(t *testing.T) {
	path := writeCapture(t, "b.txt", "BenchmarkX-16   	 100	 5000 ns/op\n")
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkX"]; !ok {
		t.Fatalf("suffix not stripped: %v", got)
	}
}

// TestExitCodes pins the unified lint-tool convention: 0 = clean,
// 1 = findings (a regression), 2 = usage/IO error.
func TestExitCodes(t *testing.T) {
	base := writeCapture(t, "base.txt", "BenchmarkX-8  100  5000 ns/op\n")
	same := writeCapture(t, "same.txt", "BenchmarkX-8  100  5100 ns/op\n")
	slow := writeCapture(t, "slow.txt", "BenchmarkX-8  100  9000 ns/op\n")

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no regression", []string{base, same}, 0},
		{"regression", []string{base, slow}, 1},
		{"regression under noise floor", []string{"-min-ns", "100000", base, slow}, 0},
		{"missing operand", []string{base}, 2},
		{"unknown flag", []string{"-nosuch", base, same}, 2},
		{"missing file", []string{base, filepath.Join(t.TempDir(), "absent.txt")}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, got, tc.want, &stdout, &stderr)
			}
			if tc.want == 1 && !strings.Contains(stdout.String(), "REGRESSION") {
				t.Errorf("regression run did not mark the row:\n%s", &stdout)
			}
		})
	}
}

// TestAllocGrowthMarked: with -benchmem captures, a row whose allocs/op
// grew is marked, but only ns/op decides the exit status.
func TestAllocGrowthMarked(t *testing.T) {
	base := writeCapture(t, "base.txt", "BenchmarkX-8  100  5000 ns/op  0 B/op  2 allocs/op\nBenchmarkX-8  100  5000 ns/op  0 B/op  3 allocs/op\n")
	head := writeCapture(t, "head.txt", "BenchmarkX-8  100  5000 ns/op  64 B/op  4 allocs/op\n")
	var stdout, stderr bytes.Buffer
	if got := run([]string{base, head}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, want 0 (allocs alone never fail)\n%s", got, &stdout)
	}
	if !strings.Contains(stdout.String(), "<< ALLOCS 2 -> 4") {
		t.Errorf("alloc growth not marked against the base minimum:\n%s", &stdout)
	}
	stdout.Reset()
	if got := run([]string{head, base}, &stdout, &stderr); got != 0 || strings.Contains(stdout.String(), "ALLOCS") {
		t.Errorf("alloc drop marked or failed (exit %d):\n%s", got, &stdout)
	}
}
