package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildSamrd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "samrd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestNonsenseFlagsFailStartup: settings that used to start a daemon
// doing something other than what they say — a negative duration read
// as "off", a -tier-self the ring does not list — are
// startup errors that name the setting, and so is each flag that had
// one value in use and became a constant or whose mechanism was
// removed.
func TestNonsenseFlagsFailStartup(t *testing.T) {
	bin := buildSamrd(t)
	peers := "http://127.0.0.1:1,http://127.0.0.1:2"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-request-timeout", "-5s"}, "RequestTimeout -5s"},
		{[]string{"-tier-dir", t.TempDir(), "-tier-peers", peers, "-tier-self", "http://127.0.0.1:3"}, "TierSelf"},
		{[]string{"-tier-dir", t.TempDir(), "-tier-peers", peers}, "TierSelf"},
		{[]string{"-queue-depth", "32"}, "not defined: -queue-depth"},
		{[]string{"-tier-max-bytes", "1048576"}, "not defined: -tier-max-bytes"},
		{[]string{"-max-sessions", "8"}, "not defined: -max-sessions"},
		{[]string{"-fault-seed", "7"}, "not defined: -fault-seed"},
		{[]string{"-tier-repair", "30s"}, "not defined: -tier-repair"},
		{[]string{"-faults", "disk.put:enospc"}, "not defined: -faults"},
		{[]string{"-session-ttl", "-1m"}, "not defined: -session-ttl"},
		{[]string{"-max-body-bytes", "1048576"}, "not defined: -max-body-bytes"},
	} {
		out, err := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, c.args...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("samrd %v: %v, want a startup error naming %s\n%s", c.args, err, c.want, out)
		}
	}
}

// TestStartupLineReportsConfigurationInForce: -cache -5 runs with the
// default 256 entries, and the start-up line has to say 256, not -5.
func TestStartupLineReportsConfigurationInForce(t *testing.T) {
	cmd := exec.Command(buildSamrd(t), "-addr", "127.0.0.1:0", "-cache", "-5", "-request-timeout", "0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop := time.AfterFunc(20*time.Second, func() { cmd.Process.Kill() }) //nolint:errcheck
	defer stop.Stop()
	var line string
	for sc := bufio.NewScanner(stderr); sc.Scan(); {
		if strings.Contains(sc.Text(), "listening on") {
			line = sc.Text()
			break
		}
	}
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	cmd.Wait()                          //nolint:errcheck
	if !strings.Contains(line, "cache 256,") || !strings.Contains(line, "request timeout 0s") {
		t.Errorf("start-up line = %q, want the capacity in force (256) and the timeout (0s)", line)
	}
}
