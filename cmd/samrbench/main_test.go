package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsAreUsageErrors: -procs 0 used to panic inside the
// simulator, -procs -3 in makeslice, and -format xml silently printed
// tables. Each is exit status 2 with the usage text and nothing on
// stdout.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "samrbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, flag := range []string{"-procs=0", "-procs=-3", "-format=xml"} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, "-experiment", "fig1", "-quick", flag)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("samrbench %s: %v, want exit status 2\n%s", flag, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "Usage of") {
			t.Errorf("samrbench %s printed no usage:\n%s", flag, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("samrbench %s printed %q", flag, stdout.String())
		}
	}
}
