package main

import (
	"net"
	"net/http"
	"testing"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	"hyper4/internal/sim"
)

// TestServersSetTimeouts starts the management API and the metrics endpoint
// the way main does, on loopback ports, and reads both timeouts back from
// each server after one request has gone through it.
func TestServersSetTimeouts(t *testing.T) {
	p, err := persona.Generate(persona.Reference)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("hp4", p.Program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpmu.New(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	cp := ctl.New(d)
	defer cp.Close()
	for _, s := range []struct {
		name, path string
		h          http.Handler
	}{
		{"api", "/v1/read?kind=vdevs", ctl.NewServeMux(cp)},
		{"metrics", "/metrics", newMetricsMux(sw, d, nil)},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := serveHTTP(s.name, ln, s.h)
		resp, err := http.Get("http://" + ln.Addr().String() + s.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: GET %s = %s", s.name, s.path, resp.Status)
		}
		if srv.IdleTimeout != idleTimeout || srv.ReadHeaderTimeout != readHeaderTimeout {
			t.Errorf("%s: IdleTimeout %v, ReadHeaderTimeout %v; want %v, %v", s.name, srv.IdleTimeout, srv.ReadHeaderTimeout, idleTimeout, readHeaderTimeout)
		}
		srv.Close()
	}
}
