// Command volcano-gen is the optimizer generator: it translates a data
// model specification into Go source code for an optimizer package that
// links against the search engine (internal/core), following the
// paper's generator paradigm.
//
// Usage:
//
//	volcano-gen -spec model.model [-o optimizer.go] [-timeout 10s]
//
// The generated package declares a Support interface for the
// implementor-supplied functions the specification references; see
// internal/gen/testdata/minirel.model for a worked specification and
// internal/gen/minirel for its generated output. Generated models also
// carry a Version token (a fingerprint of the generated rule set, mixed
// with the support code's own token when it implements core.Versioned)
// so plan caches stop serving entries from regenerated optimizers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gen"
)

func main() {
	spec := flag.String("spec", "", "model specification file")
	out := flag.String("o", "", "output file (default stdout)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for parsing and generation (0 = unbounded)")
	flag.Parse()
	if *spec == "" {
		fmt.Fprintln(os.Stderr, "volcano-gen: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	input, err := os.ReadFile(*spec)
	if err != nil {
		fatal(err)
	}
	src, err := generate(string(input), *timeout)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(src)
		return
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		fatal(err)
	}
}

// generate parses the specification and emits the optimizer source,
// guarded by an optional wall-clock budget: a pathological specification
// (deeply nested patterns blow up rule elaboration) aborts with an error
// instead of hanging the build that invoked the generator.
func generate(input string, timeout time.Duration) ([]byte, error) {
	type result struct {
		src []byte
		err error
	}
	if timeout <= 0 {
		parsed, err := gen.Parse(input)
		if err != nil {
			return nil, err
		}
		return gen.Generate(parsed)
	}
	done := make(chan result, 1)
	go func() {
		parsed, err := gen.Parse(input)
		if err != nil {
			done <- result{nil, err}
			return
		}
		src, err := gen.Generate(parsed)
		done <- result{src, err}
	}()
	select {
	case r := <-done:
		return r.src, r.err
	case <-time.After(timeout):
		return nil, fmt.Errorf("generation exceeded the %v budget", timeout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "volcano-gen:", err)
	os.Exit(1)
}
