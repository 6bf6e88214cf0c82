package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// daemon is one started cmd/resolver or cmd/vantage process.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	obsAddr string
	exited  chan struct{}
	waitErr error
}

// pipeline is a resolver forwarding to a vantage, both on loopback.
type pipeline struct {
	dir      string // per-pipeline scratch directory (observed log, daemon logs)
	observed string // the vantage's observed log
	dnsAddr  string // the resolver's client-facing UDP address
	resolver *daemon
	vantage  *daemon
}

// pipelineConfig selects the binaries and the vantage's live family.
type pipelineConfig struct {
	binDir     string
	dir        string
	liveFamily string
	liveSeed   uint64
	// daemonCPU ≥ 0 binds both daemons to that CPU; genCPU is where the
	// generator runs.
	daemonCPU, genCPU int
}

// freeUDPPort and freeTCPPort ask the kernel for an unused loopback port.
func freeUDPPort() (int, error) {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

func freeTCPPort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args, logging to dir/name.log. With cpu ≥
// 0 the process is bound to that CPU (and the calling thread returns to
// home afterwards).
func startDaemon(cpu, home int, name, bin, dir, obsAddr string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark die without stopping the daemon, the kernel
	// kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := cmd.Start
	if cpu >= 0 {
		start = func() error { return onCPU(cpu, home, cmd.Start) }
	}
	if err := start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, obsAddr: obsAddr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, escalating to SIGKILL after five seconds, and waits
// for the process to exit.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	select {
	case <-d.exited:
		return fmt.Errorf("%s exited early: %v", d.name, d.waitErr)
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s ignored SIGTERM for 5s", d.name)
	}
}

// waitHealthy polls /healthz until it answers 200, the process exits or the
// timeout passes.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	c := http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get("http://" + d.obsAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during start-up: %v", d.name, d.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /healthz not 200 after %s", d.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startPipeline starts the vantage, then the resolver forwarding to it, and
// waits until both answer /healthz with 200.
func startPipeline(cfg pipelineConfig) (*pipeline, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var ports [4]int
	for i := range ports {
		var err error
		if i%2 == 0 {
			ports[i], err = freeUDPPort()
		} else {
			ports[i], err = freeTCPPort()
		}
		if err != nil {
			return nil, err
		}
	}
	p := &pipeline{
		dir:      cfg.dir,
		observed: filepath.Join(cfg.dir, "observed.jsonl"),
		dnsAddr:  fmt.Sprintf("127.0.0.1:%d", ports[2]),
	}
	vDNS := fmt.Sprintf("127.0.0.1:%d", ports[0])
	vObs := fmt.Sprintf("127.0.0.1:%d", ports[1])
	rObs := fmt.Sprintf("127.0.0.1:%d", ports[3])
	var err error
	p.vantage, err = startDaemon(cfg.daemonCPU, cfg.genCPU, "vantage", filepath.Join(cfg.binDir, "vantage"), cfg.dir, vObs,
		"-listen", vDNS,
		"-observed", p.observed,
		"-obs-addr", vObs,
		"-live-estimate", cfg.liveFamily,
		"-live-seed", fmt.Sprint(cfg.liveSeed),
		"-log-level", "warn")
	if err != nil {
		return nil, err
	}
	p.resolver, err = startDaemon(cfg.daemonCPU, cfg.genCPU, "resolver", filepath.Join(cfg.binDir, "resolver"), cfg.dir, rObs,
		"-listen", p.dnsAddr,
		"-upstream", vDNS,
		"-obs-addr", rObs,
		"-log-level", "warn")
	if err != nil {
		return nil, errors.Join(err, p.stop())
	}
	for _, d := range []*daemon{p.vantage, p.resolver} {
		if err := d.waitHealthy(20 * time.Second); err != nil {
			return nil, errors.Join(err, p.stop())
		}
	}
	return p, nil
}

// stop terminates both daemons, resolver first, and waits for them.
func (p *pipeline) stop() error {
	return errors.Join(p.resolver.stop(), p.vantage.stop())
}

// cpu returns the resolver's and the vantage's CPU seconds so far.
func (p *pipeline) cpu() (resolver, vantage float64, err error) {
	resolver, err = procCPU(p.resolver.pid())
	if err != nil {
		return 0, 0, err
	}
	vantage, err = procCPU(p.vantage.pid())
	return resolver, vantage, err
}

// rss returns the resolver's and the vantage's resident set sizes in MB.
func (p *pipeline) rss() (resolver, vantage float64, err error) {
	resolver, err = procStatusMB(p.resolver.pid(), "VmRSS")
	if err != nil {
		return 0, 0, err
	}
	vantage, err = procStatusMB(p.vantage.pid(), "VmRSS")
	return resolver, vantage, err
}
