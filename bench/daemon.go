package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the checkout the benchmark runs in: the working
// directory when the command is started from the root, or its parent
// when started from bench/.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "samrd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: %s is not the repository root (no cmd/samrd)", wd)
}

// buildDir is where everything the benchmark writes goes. It is inside
// the checkout and named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildSamrd compiles the real daemon from the checkout's source. The
// Go build cache makes a repeated build a sub-second no-op, so every
// invocation builds, and none measures a stale binary.
func buildSamrd(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "samrd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/samrd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build samrd: %v\n%s", err, out)
	}
	return bin, nil
}

// usage is what a process cost.
type usage struct {
	CPU   time.Duration // user + system, from the exit status
	RSSKB int64         // peak resident set
}

// peakRSSKB reads a live process's resident-set high-water mark. The
// exit status carries one too (ru_maxrss), but Go starts children with
// vfork, so that one is never below what this benchmark process itself
// held when it started them.
func peakRSSKB(pid int) int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// daemon is one running samrd.
type daemon struct {
	cmd *exec.Cmd
	url string
	log bytes.Buffer
}

// firstPort is where the search for listen ports starts. The fleet's
// ring hashes the member URLs, so which member owns a key, and with it
// every tier counter, depends on the ports: taking the same free ports
// in the same order makes the counters repeat from run to run.
const firstPort = 38347

// freePorts returns n ports nothing listens on, lowest first.
func freePorts(n int) ([]int, error) {
	var ports []int
	for p := firstPort; p < firstPort+200 && len(ports) < n; p++ {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			continue
		}
		l.Close()
		ports = append(ports, p)
	}
	if len(ports) < n {
		return nil, fmt.Errorf("bench: no %d free ports from %d", n, firstPort)
	}
	return ports, nil
}

// startFleet starts n daemons and waits until each answers /readyz.
// flags returns the extra flags of member i given every member's URL.
func startFleet(bin string, n int, flags func(i int, urls []string) []string) ([]*daemon, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	var fleet []*daemon
	for i := range urls {
		d := &daemon{url: urls[i]}
		d.cmd = exec.Command(bin, append([]string{"-addr", strings.TrimPrefix(urls[i], "http://")}, flags(i, urls)...)...)
		d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
		if err := d.cmd.Start(); err != nil {
			stopFleet(fleet)
			return nil, err
		}
		fleet = append(fleet, d)
	}
	for _, d := range fleet {
		if err := d.waitReady(10 * time.Second); err != nil {
			stopFleet(fleet)
			return nil, err
		}
	}
	return fleet, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: samrd at %s not ready after %s:\n%s", d.url, limit, d.log.String())
}

// stop terminates the daemon the way an operator would (SIGTERM, so it
// drains), waits for it, and returns what it cost.
func (d *daemon) stop() (usage, error) {
	rss := peakRSSKB(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone: Wait reports it
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return usage{}, err
		}
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-done
		return usage{}, fmt.Errorf("bench: samrd at %s ignored SIGTERM:\n%s", d.url, d.log.String())
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return usage{}, fmt.Errorf("bench: samrd at %s exited %d:\n%s", d.url, code, d.log.String())
	}
	return usage{CPU: d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime(), RSSKB: rss}, nil
}

// stopFleet stops every member and adds up the cost: CPU summed, RSS
// the largest member's.
func stopFleet(fleet []*daemon) (usage, error) {
	var total usage
	var first error
	for _, d := range fleet {
		u, err := d.stop()
		if err != nil && first == nil {
			first = err
		}
		total.CPU += u.CPU
		total.RSSKB = max(total.RSSKB, u.RSSKB)
	}
	return total, first
}

// scrapeStats reads GET /v1/stats as a generic tree, so a counter the
// daemon stops exporting reads as 0 instead of breaking the build.
func scrapeStats(url string) (map[string]any, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var tree map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return tree, nil
}

func scrapeAll(urls []string) ([]map[string]any, error) {
	out := make([]map[string]any, len(urls))
	for i, u := range urls {
		var err error
		if out[i], err = scrapeStats(u); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counter reads the number at a dotted path of a stats tree (0 when
// absent).
func counter(tree map[string]any, path string) float64 {
	var cur any = tree
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	f, _ := cur.(float64)
	return f
}
