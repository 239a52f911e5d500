package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeCountsAreUsageErrors: a negative -steps used to write a
// one-snapshot trace and exit 0, and a negative -levels or -base read
// as "paper default". Each is exit status 2 with the usage text and no
// trace file.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "samrtrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, flag := range []string{"-steps=-3", "-levels=-2", "-base=-1"} {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-app", "TP2D", flag)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("samrtrace %s: %v, want exit status 2\n%s", flag, err, out)
		}
		if !strings.Contains(string(out), "Usage of") {
			t.Errorf("samrtrace %s printed no usage:\n%s", flag, out)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("samrtrace %s wrote %s", flag, left[0].Name())
		}
	}
}
