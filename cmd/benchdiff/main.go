// benchdiff compares two `go test -bench` outputs (a base run and a
// head run) benchstat-style and fails on regressions: CI runs the
// tracked decode benchmarks on the PR base and head, feeds both
// captures here, and uploads the rendered delta as an artifact. A
// benchmark is judged on its ns/op; rows present in only one capture
// are reported but never fail the build (new benchmarks land with
// their first numbers, retired ones drop out). Captures taken with
// -benchmem also get their allocs/op compared: a row whose allocation
// count grew is marked, without failing the build, since a pool refill
// after a GC can add one to an otherwise steady count.
//
// Usage:
//
//	benchdiff [-max-regress 10] [-min-ns 1000] base.txt head.txt
//
// Exit status follows the repo's lint-tool convention: 0 = no
// regressions, 1 = at least one benchmark common to both captures
// slowed down by more than -max-regress percent (after the -min-ns
// noise floor), 2 = usage or IO error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result row of `go test -bench` output, e.g.
//
//	BenchmarkDecode/dict/512-8   300  2291 ns/op  894.02 MB/s  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocsField matches the -benchmem allocation count of a result row.
var allocsField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// parseBench extracts name -> ns/op from a bench capture. Repeated
// rows (from -count) keep the minimum: on shared CI runners the
// fastest of N runs is the least noise-contaminated estimate, so
// min-vs-min comparisons flap far less than single samples or means.
func parseBench(path string) (map[string]float64, error) {
	ns, _, err := parseCapture(path)
	return ns, err
}

// parseCapture extracts name -> ns/op and, for rows that carry one,
// name -> allocs/op, keeping the minimum of repeated rows for both.
func parseCapture(path string) (nsOp, allocsOp map[string]float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	allocs := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := out[m[1]]; !ok || ns < cur {
			out[m[1]] = ns
		}
		if a := allocsField.FindStringSubmatch(sc.Text()); a != nil {
			n, _ := strconv.ParseFloat(a[1], 64)
			if cur, ok := allocs[m[1]]; !ok || n < cur {
				allocs[m[1]] = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, allocs, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxRegress := fs.Float64("max-regress", 10, "fail when a common benchmark's ns/op grows by more than this percent")
	minNS := fs.Float64("min-ns", 1000, "ignore regressions where both sides are below this many ns/op (noise floor)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-max-regress PCT] [-min-ns NS] base.txt head.txt")
		return 2
	}
	base, baseAllocs, err := parseCapture(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	head, headAllocs, err := parseCapture(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	names := make([]string, 0, len(base)+len(head))
	seen := make(map[string]bool)
	for n := range base {
		names = append(names, n)
		seen[n] = true
	}
	for n := range head {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	failed := false
	fmt.Fprintf(stdout, "%-55s %14s %14s %9s\n", "benchmark", "base ns/op", "head ns/op", "delta")
	for _, n := range names {
		b, inBase := base[n]
		h, inHead := head[n]
		switch {
		case !inBase:
			fmt.Fprintf(stdout, "%-55s %14s %14.1f %9s\n", n, "-", h, "new")
		case !inHead:
			fmt.Fprintf(stdout, "%-55s %14.1f %14s %9s\n", n, b, "-", "gone")
		default:
			delta := (h - b) / b * 100
			mark := ""
			if delta > *maxRegress && (b >= *minNS || h >= *minNS) {
				mark = "  << REGRESSION"
				failed = true
			}
			ba, okb := baseAllocs[n]
			ha, okh := headAllocs[n]
			if okb && okh && ha > ba {
				mark += fmt.Sprintf("  << ALLOCS %.0f -> %.0f", ba, ha)
			}
			fmt.Fprintf(stdout, "%-55s %14.1f %14.1f %+8.1f%%%s\n", n, b, h, delta, mark)
		}
	}
	if failed {
		fmt.Fprintf(stdout, "\nFAIL: at least one tracked benchmark regressed more than %.1f%%\n", *maxRegress)
		return 1
	}
	fmt.Fprintln(stdout, "\nOK: no tracked benchmark regressed beyond the threshold")
	return 0
}
