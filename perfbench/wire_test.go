package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"botmeter/internal/dnswire"
)

func TestUnanswered(t *testing.T) {
	qs := []query{{name: "a"}, {name: "b"}, {name: "c"}}
	r := &phaseResult{ok: []bool{true, false, false}}
	got := unanswered(qs, r)
	if len(got) != 2 || got[0].name != "b" || got[1].name != "c" {
		t.Fatalf("unanswered = %v", got)
	}
}

func TestMissNamesNeverRepeatAndCarryThePoolShare(t *testing.T) {
	src, err := newNameSource(wireMiss, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	pool := 0
	for b := 0; b < 3; b++ {
		qs, err := src.batch(400, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			if seen[q.name] {
				t.Fatalf("%q repeats", q.name)
			}
			seen[q.name] = true
			if q.name != strings.ToLower(q.name) {
				t.Fatalf("%q is not lowercase", q.name)
			}
			if q.pool {
				pool++
			}
		}
	}
	// The pool share of the queries names pool domains, unless they fall
	// next to midnight.
	now := time.Now()
	if day(now.Add(-5*time.Second)) != day(now.Add(5*time.Second)) {
		t.Skip("too close to midnight UTC")
	}
	if want := int(1200 * wireMiss.poolShare); pool != want {
		t.Errorf("%d pool names in 1200 queries, want %d", pool, want)
	}
}

func TestIsPoolSpreadsTheShareEvenly(t *testing.T) {
	for _, share := range []float64{0, 0.125, wireMissPoolShare, 1} {
		n := 0
		for k := 0; k < 1000; k++ {
			if isPool(k, share) {
				n++
			}
			// Every prefix holds the share, to within one query.
			if d := float64(n) - float64(k+1)*share; d > 1 || d < -1 {
				t.Fatalf("share %v: %d pool names in the first %d", share, n, k+1)
			}
		}
	}
}

func TestHitNamesRotate(t *testing.T) {
	src, err := newNameSource(wireHit, 3)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := src.batch(2*wireHit.hitNames, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wireHit.hitNames; i++ {
		if qs[i].name != qs[i+wireHit.hitNames].name || qs[i].pool {
			t.Fatalf("query %d: %q then %q", i, qs[i].name, qs[i+wireHit.hitNames].name)
		}
	}
}

func TestClosedLoopWaitsForEachAnswer(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, 65535)
		for {
			n, ap, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			m, err := dnswire.Decode(buf[:n])
			if err != nil || m.Questions[0].Name == "dropped.example" {
				continue
			}
			m.Header.QR, m.Header.Rcode = true, dnswire.RcodeNXDomain
			out, err := m.Encode()
			if err == nil {
				_, _ = srv.WriteToUDPAddrPort(out, ap)
			}
		}
	}()
	g, err := newGenerator(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	qs := []query{{name: "a.example", pool: true}, {name: "dropped.example"}, {name: "b.example"}}
	r := g.closedLoop(qs, 50*time.Millisecond)
	if r.sent != 3 || r.answered != 2 || r.bad != 0 || r.poolSent != 1 || r.poolAnswered != 1 {
		t.Fatalf("sent %d answered %d bad %d pool %d/%d", r.sent, r.answered, r.bad, r.poolAnswered, r.poolSent)
	}
	if !r.ok[0] || r.ok[1] || !r.ok[2] || len(r.lat) != 2 {
		t.Fatalf("ok %v, %d latencies", r.ok, len(r.lat))
	}
}
