package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running citesrv process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>

	logMu sync.Mutex
	log   []string      // the server's log lines, kept for error reports
	done  chan struct{} // closed once the process has been waited for
	state *os.ProcessState
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer spawns citesrv (args must make it listen on an OS-chosen
// loopback port, see layout.serverArgs) and waits until /v1/health answers
// 200 — for a first boot on -data-dir that includes
// seeding the store. The bound address is read from the server's log. On
// any failure the process is stopped before the error is returned.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Drain the log until the process closes it, then reap the process;
		// Wait must follow the last read of the pipe.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			s.log = append(s.log, line)
			s.logMu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a line past the scanner's limit
		_ = cmd.Wait()                     // the exit status is read from ProcessState
		s.state = cmd.ProcessState
		close(s.done)
	}()
	select {
	case addr := <-addrCh:
		s.base = "http://" + addr
	case <-s.done:
		return nil, fmt.Errorf("citesrv exited before listening:\n%s", s.logTail())
	case <-ctx.Done():
		s.stop()
		return nil, fmt.Errorf("citesrv did not listen in time: %w\n%s", ctx.Err(), s.logTail())
	}
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) logTail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	lines := s.log
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

func (s *server) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/health", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("citesrv not healthy: %w\n%s", ctx.Err(), s.logTail())
		case <-s.done:
			return fmt.Errorf("citesrv exited while starting:\n%s", s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// after ten seconds, and returns once the process has been reaped. It is
// safe to call more than once.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB is the process's maximum resident set from its rusage; valid
// after stop.
func (s *server) peakRSSMB() float64 {
	ru, ok := s.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// get fetches one of the server's plain GET endpoints (/stats, /metrics).
func (s *server) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(raw), nil
}

// userHZ is the kernel's clock-tick unit for /proc/<pid>/stat; it is 100 on
// every Linux platform Go supports.
const userHZ = 100

// procCPUSeconds reads a process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unreadable CPU fields in /proc stat line")
	}
	return (utime + stime) / userHZ, nil
}
