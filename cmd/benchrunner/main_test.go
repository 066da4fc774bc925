package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownIDs runs benchrunner in a child process with a
// stale -only id and requires a non-zero exit whose message names the
// bad id and lists the valid ones, instead of a silent empty run.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	if os.Getenv("BENCHRUNNER_CHILD") == "1" {
		os.Args = []string{"benchrunner", "-only", "E5,E14", "-json", "off"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOnlyRejectsUnknownIDs$")
	cmd.Env = append(os.Environ(), "BENCHRUNNER_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit status 2, got %v; output:\n%s", err, out)
	}
	for _, want := range []string{"E14", "valid ids: E1,E2,", "E20,E21"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "== E5") {
		t.Errorf("ran E5 despite the unknown id:\n%s", out)
	}
}

func TestSelectIDs(t *testing.T) {
	want, err := selectIDs(" e2 ,E21")
	if err != nil || len(want) != 2 || !want["E2"] || !want["E21"] {
		t.Fatalf("selectIDs = %v, %v", want, err)
	}
	if want, err := selectIDs(""); err != nil || len(want) != 0 {
		t.Fatalf("empty -only = %v, %v; want all", want, err)
	}
}
