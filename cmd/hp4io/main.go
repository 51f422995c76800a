// Command hp4io is a minimal wire-traffic client for exercising a running
// hp4switch over its UDP transports: it sends raw frames as single datagrams
// and prints frames it receives as hex, one per line. It is what the hp4switch
// wire tests and the README's "Serving real traffic" walkthrough drive the
// switch with — the role iperf/scapy clients play against a bmv2 deployment.
//
// Usage:
//
//	hp4io send -to 127.0.0.1:9000 -hex 000000000002...      one frame
//	hp4io send -to 127.0.0.1:9000 -hex ... -n 100           repeated
//	hp4io recv -listen 127.0.0.1:9001 [-n 1] [-timeout 5s]  print frames
//
// recv exits 0 once it has printed -n frames; on a missed deadline it
// reports how many frames arrived and exits 1 (-timeout 0 waits forever).
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "send":
		send(os.Args[2:])
	case "recv":
		recv(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hp4io send -to <addr> -hex <bytes> [-n count] | hp4io recv -listen <addr> [-n count] [-timeout d]")
	os.Exit(2)
}

func send(args []string) {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	to := fs.String("to", "", "destination address (host:port)")
	hexStr := fs.String("hex", "", "frame bytes as hex")
	n := fs.Int("n", 1, "number of copies to send")
	gap := fs.Duration("gap", 0, "pause between frames")
	_ = fs.Parse(args)
	if *to == "" || *hexStr == "" {
		usage()
	}
	data, err := hex.DecodeString(*hexStr)
	if err != nil {
		fatal("bad -hex:", err)
	}
	conn, err := net.Dial("udp", *to)
	if err != nil {
		fatal("dial:", err)
	}
	defer conn.Close()
	for i := 0; i < *n; i++ {
		if _, err := conn.Write(data); err != nil {
			fatal("send:", err)
		}
		if *gap > 0 {
			time.Sleep(*gap)
		}
	}
	fmt.Printf("sent %d frame(s) of %d bytes to %s\n", *n, len(data), *to)
}

func recv(args []string) {
	fs := flag.NewFlagSet("recv", flag.ExitOnError)
	listen := fs.String("listen", "", "listen address (host:port)")
	n := fs.Int("n", 1, "frames to receive before exiting")
	timeout := fs.Duration("timeout", 5*time.Second, "overall receive deadline (0 = wait forever)")
	_ = fs.Parse(args)
	if *listen == "" {
		usage()
	}
	addr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		fatal("bad -listen:", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		fatal("listen:", err)
	}
	defer conn.Close()
	if *timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(*timeout))
	}
	buf := make([]byte, 65535)
	for got := 0; got < *n; got++ {
		sz, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			// A missed deadline is the expected failure shape in scripts
			// and tests: say what was awaited, not just
			// the raw "i/o timeout".
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				fmt.Fprintf(os.Stderr, "hp4io: timed out after %v: received %d of %d frame(s)\n", *timeout, got, *n)
			} else {
				fmt.Fprintf(os.Stderr, "hp4io: received %d of %d frame(s): %v\n", got, *n, err)
			}
			os.Exit(1)
		}
		fmt.Printf("%x\n", buf[:sz])
	}
}

func fatal(msg string, err error) {
	fmt.Fprintln(os.Stderr, "hp4io:", msg, err)
	os.Exit(1)
}
