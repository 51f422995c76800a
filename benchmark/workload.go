package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"hyper4/internal/functions"
	"hyper4/internal/pkt"
)

const (
	// poolSize is the number of distinct pre-built frames a run cycles
	// through; the program under test sees only these frames.
	poolSize = 256
	// window is the number of frames in flight in the saturate phase: below
	// the ring size (1024) and the loopback socket buffer, so the rate
	// measured is the zero-loss rate.
	window = 256
	// slots is how many frame buffers the sender rotates through. A slot is
	// reused 1024 sends later; by then its frame has left the (FIFO) switch,
	// because at most `window` forwarded frames are in flight.
	slots = 4 * poolSize
	// tagLen is the sequence tag at the tail of every frame's payload.
	tagLen = 4

	blockedTCPPort = 5201
	churnAdds      = 8 // table_add ops per batch (and as many table_delete)
	// recoverBatches is how many batches the journal holds that a timed run
	// recovers from.
	recoverBatches = 64
)

// entry is one table_add in the bmv2 dialect both control planes share
// ("table_add <table> <action> <match>... => <args>..."). On a persona
// switch it is sent to vdev; a native switch has no vdevs and ignores it.
type entry struct {
	vdev string
	line string
}

type vdevSpec struct{ name, function string }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// udp puts both switch ports on loopback UDP sockets; otherwise the wires
	// are in-process channel links.
	udp bool
	// native measures the native P4 program on the interpreter with no
	// persona; otherwise the fused persona is measured.
	native bool
	// churn runs the control phase during the saturate phase instead of
	// after it.
	churn bool

	nativeFn      string
	nativeEntries []string
	vdevs         []vdevSpec
	entries       []entry
	wiring        []string // ctl dialect: assign / map / link

	makePool func(rng *rand.Rand) [][]byte
	// churnRate is the control phase's pace in batches per second; batch i
	// adds churnEntries(i) and deletes what batch i-1 added.
	churnRate    int
	churnEntries func(batch int) []entry
}

var workloadNames = []string{"l2_udp", "chain_chan", "chain_native_chan", "l2_churn"}

func workloadByName(name string) (*workload, error) {
	switch name {
	case "l2_udp":
		w := l2Workload(name, 64)
		w.udp = true
		return w, nil
	case "l2_churn":
		// 256 stations are 512 entries. Every table op rebuilds the fused
		// plans and sends the packets that race it to the interpreter, so a
		// write costs ~25 ms here against ~6 ms on an idle 64-station switch;
		// 10 batches a second keeps the controller about a third busy. At the
		// 50 a second the other workloads use, batches queue without bound.
		w := l2Workload(name, 256)
		w.churn, w.churnRate = true, 10
		return w, nil
	case "chain_chan":
		return chainWorkload(name, false), nil
	case "chain_native_chan":
		return chainWorkload(name, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func l2Host(i int) pkt.MAC { return pkt.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)} }

// l2Workload is one l2_switch vdev with `hosts` stations, even-numbered ones
// behind port 1 and odd-numbered ones behind port 2.
func l2Workload(name string, hosts int) *workload {
	w := &workload{
		name:     name,
		nativeFn: functions.L2Switch,
		vdevs:    []vdevSpec{{"l2", functions.L2Switch}},
		wiring:   []string{"assign any l2 0", "map l2 1 1", "map l2 2 2"},

		churnRate: 50,
	}
	for i := 0; i < hosts; i++ {
		for _, line := range l2HostLines(l2Host(i), 1+i%2) {
			w.entries = append(w.entries, entry{"l2", line})
			w.nativeEntries = append(w.nativeEntries, line)
		}
	}
	w.makePool = func(rng *rand.Rand) [][]byte {
		pool := make([][]byte, poolSize)
		for i := range pool {
			payload := make([]byte, pkt.MinFrame-14)
			rng.Read(payload)
			pool[i] = pkt.Serialize(&pkt.Ethernet{
				Dst:       l2Host(2*rng.Intn(hosts/2) + 1),
				Src:       l2Host(2 * rng.Intn(hosts/2)),
				EtherType: 0x88b5, // IEEE local experimental: no parser branch past Ethernet
			}, pkt.Payload(payload))
		}
		return pool
	}
	// Churned stations are never addressed by the traffic, so what the
	// switch must do with every pool frame is the same before, during and
	// after a write.
	w.churnEntries = func(batch int) []entry {
		var out []entry
		for k := 0; k < churnAdds/2; k++ {
			mac := pkt.MAC{0x02, 0x01, byte(batch >> 16), byte(batch >> 8), byte(batch), byte(k)}
			for _, line := range l2HostLines(mac, 2) {
				out = append(out, entry{"l2", line})
			}
		}
		return out
	}
	return w
}

func l2HostLines(mac pkt.MAC, port int) []string {
	return []string{
		fmt.Sprintf("table_add smac _nop %s =>", mac),
		fmt.Sprintf("table_add dmac forward %s => %d", mac, port),
	}
}

var (
	h1MAC = pkt.MustMAC("00:00:00:00:00:01")
	h2MAC = pkt.MustMAC("00:00:00:00:00:02")
	rtMAC = pkt.MustMAC("aa:aa:aa:aa:aa:02")
	h1IP  = pkt.MustIP4("10.0.0.1")
	h2IP  = pkt.MustIP4("10.0.0.2")
)

// chainWorkload is the paper's Example 1 C: arp_proxy → firewall → router,
// as three vdevs over two virtual links, or as the native composed program.
func chainWorkload(name string, native bool) *workload {
	w := &workload{
		name:     name,
		native:   native,
		nativeFn: functions.Composed,
		vdevs: []vdevSpec{
			{"arp", functions.ARPProxy}, {"fw", functions.Firewall}, {"rtr", functions.Router},
		},
		wiring: []string{
			"assign 1 arp 1", "assign 2 arp 2", "map arp 1 1", "map arp 2 2",
			"link arp 10 fw 1", "link fw 10 rtr 1", "map rtr 1 1", "map rtr 2 2",
		},
		churnRate: 50,
	}
	block := fmt.Sprintf("table_add tcp_filter _drop 0&&&0 %d&&&0xffff => 1", blockedTCPPort)
	arp := []string{
		"table_add check_arp mark_request 1 1 =>",
		fmt.Sprintf("table_add arp_resp proxy_reply %s => %s", h2IP, h2MAC),
	}
	var route []string
	for _, h := range []struct {
		ip   pkt.IP4
		mac  pkt.MAC
		port int
	}{{h1IP, h1MAC, 1}, {h2IP, h2MAC, 2}} {
		route = append(route,
			fmt.Sprintf("table_add ipv4_lpm set_nhop %s/32 => %s %d", h.ip, h.ip, h.port),
			fmt.Sprintf("table_add forward set_dmac %s => %s", h.ip, h.mac),
			fmt.Sprintf("table_add send_frame rewrite_mac %d => %s", h.port, rtMAC),
		)
	}
	w.nativeEntries = append(append(append(w.nativeEntries, arp...), block), route...)

	for _, line := range arp {
		w.entries = append(w.entries, entry{"arp", line})
	}
	// Everything the proxy and the firewall switch at layer 2 continues down
	// the chain on virtual port 10.
	for _, mac := range []pkt.MAC{h1MAC, h2MAC, rtMAC} {
		w.entries = append(w.entries,
			entry{"arp", fmt.Sprintf("table_add smac _nop %s =>", mac)},
			entry{"arp", fmt.Sprintf("table_add dmac forward %s => 10", mac)},
			entry{"fw", fmt.Sprintf("table_add dmac forward %s => 10", mac)},
		)
	}
	w.entries = append(w.entries, entry{"fw", block},
		entry{"rtr", "table_add validate_ttl _drop 0 =>"},
		entry{"rtr", "table_add validate_ttl _drop 1 =>"})
	for _, line := range route {
		w.entries = append(w.entries, entry{"rtr", line})
	}

	w.makePool = chainPool
	// Firewall rules for ports the traffic never uses: rule churn a tenant
	// would issue, with no effect on what any pool frame must do.
	w.churnEntries = func(batch int) []entry {
		out := make([]entry, churnAdds)
		for k := range out {
			port := 20000 + (batch*churnAdds+k)%20000
			out[k] = entry{"fw", fmt.Sprintf("table_add tcp_filter _drop 0&&&0 %d&&&0xffff => 1", port)}
		}
		return out
	}
	return w
}

// chainPool builds the chain traffic: exactly 45 % TCP, 45 % UDP and 10 % TCP
// to the blocked port, a third each of 60-, 576- and 1514-byte frames. The
// seed shuffles which frame gets which kind and size and draws ports and
// payload, so the mix itself does not move with the seed.
func chainPool(rng *rand.Rand) [][]byte {
	const (
		kindTCP = iota
		kindUDP
		kindBlocked
	)
	kinds := make([]int, poolSize)
	sizes := make([]int, poolSize)
	for i := range kinds {
		switch {
		case i < poolSize*45/100:
			kinds[i] = kindTCP
		case i < poolSize*90/100:
			kinds[i] = kindUDP
		default:
			kinds[i] = kindBlocked
		}
		sizes[i] = []int{60, 576, 1514}[i%3]
	}
	rng.Shuffle(poolSize, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	rng.Shuffle(poolSize, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	port := func() uint16 { // 1024..19999, never the blocked port
		for {
			if p := uint16(1024 + rng.Intn(19000-24)); p != blockedTCPPort {
				return p
			}
		}
	}
	pool := make([][]byte, poolSize)
	for i := range pool {
		eth := &pkt.Ethernet{Dst: h2MAC, Src: h1MAC, EtherType: pkt.EtherTypeIPv4}
		ip := &pkt.IPv4{TTL: 64, ID: uint16(rng.Intn(1 << 16)), Src: h1IP, Dst: h2IP}
		var l4 pkt.Layer
		l4Len := 20
		switch kinds[i] {
		case kindUDP:
			ip.Protocol = pkt.IPProtoUDP
			l4, l4Len = &pkt.UDP{SrcPort: port(), DstPort: port()}, 8
		case kindTCP:
			ip.Protocol = pkt.IPProtoTCP
			l4 = &pkt.TCP{SrcPort: port(), DstPort: port(), Flags: pkt.TCPAck}
		default:
			ip.Protocol = pkt.IPProtoTCP
			l4 = &pkt.TCP{SrcPort: port(), DstPort: blockedTCPPort, Flags: pkt.TCPAck}
		}
		payload := make([]byte, sizes[i]-14-20-l4Len)
		rng.Read(payload)
		pool[i] = pkt.Serialize(eth, ip, l4, pkt.Payload(payload))
	}
	return pool
}

// setTag writes the sequence tag into the tail of a frame.
func setTag(frame []byte, seq uint32) {
	binary.BigEndian.PutUint32(frame[len(frame)-tagLen:], seq)
}

func getTag(frame []byte) uint32 {
	return binary.BigEndian.Uint32(frame[len(frame)-tagLen:])
}
