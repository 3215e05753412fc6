package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one running hosserve process.
type Server struct {
	cmd  *exec.Cmd
	Addr string
	// Setup is exec → first 200 from /healthz.
	Setup  time.Duration
	exited chan struct{}
	client *http.Client
}

// startServer execs hosserve with args (plus a loopback ephemeral
// -addr), reads the listen address from its "serving on" line and
// polls /healthz until it answers 200.
func startServer(bin string, args []string, logPath string) (*Server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &Server{cmd: cmd, exited: make(chan struct{}), client: &http.Client{Timeout: 30 * time.Second}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "serving on "); ok && !sent {
				addrCh <- a
				sent = true
			}
		}
		_ = cmd.Wait() // exit status is irrelevant: the benchmark stops it
		logf.Close()
		close(s.exited)
	}()
	select {
	case s.Addr = <-addrCh:
	case <-s.exited:
		return nil, fmt.Errorf("hosserve exited during set-up; see %s", logPath)
	case <-time.After(150 * time.Second):
		s.Stop()
		return nil, errors.New("hosserve set-up timed out")
	}
	for {
		resp, err := s.client.Get("http://" + s.Addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(t0)
				return s, nil
			}
		}
		if time.Since(t0) > 150*time.Second {
			s.Stop()
			return nil, errors.New("hosserve /healthz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop terminates the server gracefully, killing it if it does not exit
// within 10 s, and waits until it has exited.
func (s *Server) Stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// CPU is the server's cumulative CPU time: the sum over its threads of
// the nanosecond run time in /proc/<pid>/task/*/schedstat.
func (s *Server) CPU() (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for hosserve: %v", err)
	}
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited since the glob
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// PeakRSSMB is the server's peak resident set (VmHWM) in MB.
func (s *Server) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Datasets    []struct {
		Name string `json:"name"`
		N    int    `json:"n"`
		Live struct {
			NextID        int64 `json:"next_id"`
			Appends       int64 `json:"appends"`
			AppendedRows  int64 `json:"appended_rows"`
			AppendBatches int64 `json:"append_batches"`
			WALSyncs      int64 `json:"wal_syncs"`
		} `json:"live"`
		Overload struct {
			Received int64 `json:"received"`
			Shed     int64 `json:"shed"`
		} `json:"overload"`
	} `json:"datasets"`
}

// Stats fetches /stats.
func (s *Server) Stats() (*serverStats, error) {
	resp, err := s.client.Get("http://" + s.Addr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	if len(st.Datasets) == 0 {
		return nil, errors.New("/stats lists no dataset")
	}
	return &st, nil
}

// Post sends one request outside any timed phase.
func (s *Server) Post(r *Request) (int, []byte, error) {
	req, err := http.NewRequest(r.Method, "http://"+s.Addr+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
