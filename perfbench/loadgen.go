package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botmeter/internal/dnswire"
)

// query is one scheduled DNS question.
type query struct {
	name string
	pool bool // drawn from the live family's pool for the stamped epoch
}

// phaseResult is what one open-loop phase observed.
type phaseResult struct {
	sent     int
	answered int // answered correctly, in time to count
	bad      int // answered with the wrong name or rcode
	firstBad string

	ok   []bool    // by query: answered correctly
	lat  []float64 // seconds from due time to answer, answered queries in due order
	late []float64 // seconds the generator sent each query after its due time

	poolSent     int
	poolAnswered int
}

func (r *phaseResult) lost() int { return r.sent - r.answered }

// generator is a single-socket open-loop DNS load generator. Each query is
// due at start + i/rate regardless of earlier answers; latency is measured
// from the due time, so a stall of the generator or of the system under
// test counts against every query it delays. The DNS ID carries the low 16
// bits of the query's run-wide index, and the answer must echo the
// question, which names the query exactly.
type generator struct {
	conn  *net.UDPConn
	slots []atomic.Int64 // by DNS ID: run-wide index+1 of the unanswered query
	names []string       // every name sent this run, by run-wide index
	epoch time.Time      // zero of the generator's monotonic clock
}

func newGenerator(target string) (*generator, error) {
	c, err := net.Dial("udp", target)
	if err != nil {
		return nil, err
	}
	u, ok := c.(*net.UDPConn)
	if !ok {
		c.Close()
		return nil, fmt.Errorf("%s is not a UDP address", target)
	}
	return &generator{conn: u, slots: make([]atomic.Int64, 1<<16), epoch: time.Now()}, nil
}

func (g *generator) close() error { return g.conn.Close() }

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// sleepPrecise blocks the calling OS thread for d with nanosleep. Go's
// timers round sub-millisecond sleeps up to about a millisecond, which
// would turn an open-loop schedule into millisecond bursts.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		err := syscall.Nanosleep(&ts, &ts)
		if err == nil || !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// prSetTimerslack is prctl(PR_SET_TIMERSLACK): the calling thread's timer
// slack in ns. The default 50µs slack would add that much to every sleep.
const prSetTimerslack = 29

// run sends qs open-loop at rate, then waits up to drain after the last due
// time for the answers. Names must be lowercase (answers echo them as the
// decoder lowercases them).
func (g *generator) run(qs []query, rate float64, drain time.Duration) *phaseResult {
	n := len(qs)
	res := &phaseResult{sent: n}
	base := len(g.names)
	pkts := make([][]byte, n)
	for i, q := range qs {
		g.names = append(g.names, q.name)
		pkt, err := dnswire.NewQuery(uint16(base+i), q.name).Encode()
		if err != nil {
			panic(fmt.Sprintf("encoding query %q: %v", q.name, err)) // names are generated, never input
		}
		pkts[i] = pkt
		if q.pool {
			res.poolSent++
		}
	}
	interval := float64(time.Second) / rate
	start := g.now() + int64(5*time.Millisecond)
	due := make([]int64, n)
	for i := range due {
		due[i] = start + int64(float64(i)*interval)
	}
	latNS := make([]int64, n)
	for i := range latNS {
		latNS[i] = -1
	}
	lateNS := make([]int64, n)

	var answered atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	sendDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(sendDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
		for i, pkt := range pkts {
			if d := due[i] - g.now(); d > 0 {
				sleepPrecise(time.Duration(d))
			}
			// Arm the slot before the write so the answer cannot outrun it.
			// Displacing an armed slot means the query 65536 sends ago was
			// never answered: it stays unanswered.
			g.slots[uint16(base+i)].Store(int64(base + i + 1))
			lateNS[i] = g.now() - due[i]
			_, _ = g.conn.Write(pkt) // a failed write is an unanswered query
		}
	}()
	go func() {
		defer wg.Done()
		g.receive(res, base, due, latNS, &answered)
	}()

	<-sendDone
	deadline := time.Now().Add(drain)
	for answered.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Unblock the receiver and wait for it; answers still in flight are
	// read as stale by the next phase.
	_ = g.conn.SetReadDeadline(time.Unix(1, 0))
	wg.Wait()
	_ = g.conn.SetReadDeadline(time.Time{})

	res.ok = make([]bool, n)
	for i, l := range latNS {
		if l >= 0 {
			res.ok[i] = true
			res.lat = append(res.lat, float64(l)/1e9)
			if qs[i].pool {
				res.poolAnswered++
			}
		}
		res.late = append(res.late, float64(lateNS[i])/1e9)
	}
	res.answered = len(res.lat)
	return res
}

// closedLoop sends qs one at a time, each only once the previous one was
// answered or waited timeout for, so the phase's length is the pipeline's
// own time, not an offered schedule. Latency is taken from each send.
func (g *generator) closedLoop(qs []query, timeout time.Duration) *phaseResult {
	n := len(qs)
	res := &phaseResult{sent: n, ok: make([]bool, n)}
	base := len(g.names)
	buf := make([]byte, 65535)
	var arena dnswire.Arena
	arena.LowerASCII = true
	var msg dnswire.Message
	for i, q := range qs {
		g.names = append(g.names, q.name)
		if q.pool {
			res.poolSent++
		}
		pkt, err := dnswire.NewQuery(uint16(base+i), q.name).Encode()
		if err != nil {
			panic(fmt.Sprintf("encoding query %q: %v", q.name, err)) // names are generated, never input
		}
		sent := g.now()
		_ = g.conn.SetReadDeadline(time.Now().Add(timeout))
		if _, err := g.conn.Write(pkt); err != nil {
			continue // a failed write is an unanswered query
		}
		for {
			m, err := g.conn.Read(buf)
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed) {
					break
				}
				continue
			}
			if err := dnswire.DecodeInto(buf[:m], &msg, &arena); err != nil || !msg.Header.QR || len(msg.Questions) == 0 {
				res.bad++
				res.noteBad("undecodable or non-response datagram")
				continue
			}
			if msg.Header.ID != uint16(base+i) || msg.Questions[0].Name != q.name {
				continue // a late answer to an earlier query
			}
			if msg.Header.Rcode != dnswire.RcodeNXDomain {
				res.bad++
				res.noteBad(fmt.Sprintf("%q answered rcode %d, want NXDOMAIN", q.name, msg.Header.Rcode))
				break
			}
			res.ok[i] = true
			res.lat = append(res.lat, float64(g.now()-sent)/1e9)
			if q.pool {
				res.poolAnswered++
			}
			break
		}
	}
	_ = g.conn.SetReadDeadline(time.Time{})
	res.answered = len(res.lat)
	return res
}

// receive reads answers until the socket's read deadline fires, matching
// each to its query by DNS ID and checking the echoed name and the rcode.
func (g *generator) receive(res *phaseResult, base int, due, latNS []int64, answered *atomic.Int64) {
	buf := make([]byte, 65535)
	var arena dnswire.Arena
	arena.LowerASCII = true
	var msg dnswire.Message
	for {
		n, err := g.conn.Read(buf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // e.g. ECONNREFUSED from an earlier send: the query stays unanswered
		}
		at := g.now()
		if err := dnswire.DecodeInto(buf[:n], &msg, &arena); err != nil || !msg.Header.QR || len(msg.Questions) == 0 {
			res.bad++
			res.noteBad("undecodable or non-response datagram")
			continue
		}
		k := int(g.slots[msg.Header.ID].Swap(0)) - 1
		name := msg.Questions[0].Name
		// Answers that are duplicates, or that come after their slot was
		// reused or their phase ended, are late, not wrong: skip them.
		switch {
		case k < 0:
			continue
		case g.names[k] != name:
			if !g.sentEarlier(k, name) {
				res.bad++
				res.noteBad(fmt.Sprintf("ID %d answered %q, asked %q", msg.Header.ID, name, g.names[k]))
			}
			continue
		case k < base:
			continue
		}
		if msg.Header.Rcode != dnswire.RcodeNXDomain {
			res.bad++
			res.noteBad(fmt.Sprintf("%q answered rcode %d, want NXDOMAIN", name, msg.Header.Rcode))
			continue
		}
		latNS[k-base] = at - due[k-base]
		answered.Add(1)
	}
}

// sentEarlier reports whether name was asked by an earlier query sharing
// query k's DNS ID: a late answer, not a wrong one.
func (g *generator) sentEarlier(k int, name string) bool {
	for j := k - 1<<16; j >= 0; j -= 1 << 16 {
		if g.names[j] == name {
			return true
		}
	}
	return false
}

func (r *phaseResult) noteBad(s string) {
	if r.firstBad == "" {
		r.firstBad = s
	}
}
