package integration

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles the repository's commands once into a temp dir.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	root := moduleRoot(t)
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = root
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Skip("not running inside the module")
	}
	return filepath.Dir(gomod)
}

// freePort reserves an OS-assigned port and returns host:port after
// releasing it (small race, fine for tests).
func freePort(t *testing.T, network string) string {
	t.Helper()
	if network == "udp" {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := conn.LocalAddr().String()
		conn.Close()
		return addr
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon launches a binary and registers cleanup.
func startDaemon(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("%s logs:\n%s", filepath.Base(bin), logs.String())
		}
	})
}

func waitForHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err := net.DialTimeout("tcp", strings.TrimPrefix(url, "http://"), 200*time.Millisecond); err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never came up", url)
}

// TestCLIVoDEndToEnd drives the real binaries exactly as the README
// shows: hlsorigin + two 3gold daemons + 3golc vod, over loopback.
func TestCLIVoDEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildBinaries(t, "hlsorigin", "3gold", "3golc")

	originAddr := freePort(t, "tcp")
	discoAddr := freePort(t, "udp")

	startDaemon(t, bins["hlsorigin"], "-listen", originAddr, "-duration", "20", "-segment", "5")
	waitForHTTP(t, "http://"+originAddr)

	startDaemon(t, bins["3gold"], "-name", "ph1", "-listen", "127.0.0.1:0",
		"-discovery", discoAddr, "-quota-mb", "50")
	startDaemon(t, bins["3gold"], "-name", "ph2", "-listen", "127.0.0.1:0",
		"-discovery", discoAddr, "-quota-mb", "50")

	cmd := exec.Command(bins["3golc"], "vod",
		"-origin", "http://"+originAddr,
		"-path", "/bipbop/master.m3u8",
		"-quality", "q1",
		"-prebuffer", "0.4",
		"-discovery", discoAddr,
		"-devices", "2",
		"-wait", "3s",
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("3golc vod: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"startup latency:", "total download:", "4 segments"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Both devices were discovered and admissible.
	if strings.Count(text, "admissible device") != 2 {
		t.Errorf("expected 2 admissible devices in output:\n%s", text)
	}
}

// TestCLIUploadEndToEnd exercises 3golc upload against a real multipart
// sink through one 3gold daemon.
func TestCLIUploadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildBinaries(t, "3gold", "3golc")

	sink := newMultipartSink(t)
	discoAddr := freePort(t, "udp")
	startDaemon(t, bins["3gold"], "-name", "ph1", "-listen", "127.0.0.1:0",
		"-discovery", discoAddr)

	// Three small files to upload.
	dir := t.TempDir()
	var files []string
	for i := 0; i < 3; i++ {
		f := filepath.Join(dir, fmt.Sprintf("photo%d.jpg", i))
		if err := os.WriteFile(f, bytes.Repeat([]byte{byte(i + 1)}, 100*1024), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	args := append([]string{"upload",
		"-target", sink.url,
		"-discovery", discoAddr,
		"-devices", "1",
		"-wait", "3s",
	}, files...)
	out, err := exec.Command(bins["3golc"], args...).CombinedOutput()
	if err != nil {
		t.Fatalf("3golc upload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "uploaded 3 files") {
		t.Errorf("output missing upload summary:\n%s", out)
	}
	if got := sink.count(); got != 3 {
		t.Errorf("sink received %d files, want 3", got)
	}
}

// TestCLITracegenAndBench smoke-tests the data tools.
func TestCLITracegenAndBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildBinaries(t, "tracegen", "3golbench")

	out, err := exec.Command(bins["tracegen"], "mno", "-users", "5").Output()
	if err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 6 { // header + 5 users
		t.Errorf("tracegen emitted %d lines, want 6", len(lines))
	}

	out, err = exec.Command(bins["3golbench"], "context").Output()
	if err != nil {
		t.Fatalf("3golbench context: %v", err)
	}
	if !strings.Contains(string(out), "orders of magnitude") {
		t.Errorf("3golbench context output unexpected:\n%s", out)
	}

	out, err = exec.Command(bins["3golbench"], "ablation").Output()
	if err != nil {
		t.Fatalf("3golbench ablation: %v", err)
	}
	for _, want := range []string{"duplication=true", "α=0.75", "PLAYOUT"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("3golbench ablation output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIFleetReportsWhatItRan holds 3golfleet to the configuration it
// actually ran: impossible counts are usage errors, the report names
// the shards the engine used, and -validate refuses a report of a run
// that cannot have happened.
func TestCLIFleetReportsWhatItRan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	fleet := buildBinaries(t, "3golfleet")["3golfleet"]
	run := func(stdin []byte, args ...string) ([]byte, int) {
		t.Helper()
		cmd := exec.Command(fleet, args...)
		cmd.Stdin = bytes.NewReader(stdin)
		out, err := cmd.Output()
		var ee *exec.ExitError
		switch {
		case err == nil:
			return out, 0
		case errors.As(err, &ee):
			return out, ee.ExitCode()
		}
		t.Fatalf("3golfleet %v: %v", args, err)
		return nil, 0
	}

	for _, args := range [][]string{
		{"-chaos", "none", "-homes", "8", "-shards", "-3"},
		{"-chaos", "none", "-homes", "8", "-workers", "0"},
		{"-homes", "8", "-days", "-2"},
	} {
		if _, code := run(nil, args...); code != 2 {
			t.Errorf("3golfleet %v: exit %d, want 2", args, code)
		}
	}

	for _, args := range [][]string{
		{"-homes", "4", "-shards", "9", "-workers", "2", "-json"},
		{"-chaos", "hostile", "-homes", "4", "-shards", "9", "-workers", "2", "-json"},
	} {
		out, code := run(nil, args...)
		if code != 0 {
			t.Fatalf("3golfleet %v: exit %d", args, code)
		}
		var rep map[string]any
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("3golfleet %v: %v", args, err)
		}
		if rep["shards"] != 4.0 {
			t.Errorf("3golfleet %v: reports %v shards; 4 homes run on 4", args, rep["shards"])
		}
		if _, code := run(out, "-validate"); code != 0 {
			t.Errorf("3golfleet -validate rejects the report of %v", args)
		}
		for field, bad := range map[string]any{"shards": -1, "workers": 0, "healthy": false, "delivered": 0} {
			if _, ok := rep[field]; !ok {
				continue
			}
			broken := make(map[string]any, len(rep))
			for k, v := range rep {
				broken[k] = v
			}
			broken[field] = bad
			doc, _ := json.Marshal(broken)
			if _, code := run(doc, "-validate"); code != 1 {
				t.Errorf("3golfleet -validate: exit %d for %v's report with %s = %v, want 1", code, args, field, bad)
			}
		}
	}
}
