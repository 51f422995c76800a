package pkt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMACParse(t *testing.T) {
	m, err := ParseMAC("00:11:22:33:44:55")
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "00:11:22:33:44:55" {
		t.Errorf("round trip: %s", m)
	}
	if _, err := ParseMAC("nope"); err == nil {
		t.Error("bad MAC should error")
	}
}

func TestIP4Parse(t *testing.T) {
	ip, err := ParseIP4("10.0.1.2")
	if err != nil {
		t.Fatal(err)
	}
	if ip.String() != "10.0.1.2" {
		t.Errorf("round trip: %s", ip)
	}
	if ip.Uint32() != 0x0a000102 {
		t.Errorf("Uint32 = %#x", ip.Uint32())
	}
	for _, bad := range []string{"nope", "::1", "1.2.3.4.5"} {
		if _, err := ParseIP4(bad); err == nil {
			t.Errorf("ParseIP4(%q) should error", bad)
		}
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example header.
	hdr := []byte{0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7}
	if got := Checksum(hdr); got != 0xb861 {
		t.Errorf("Checksum = %#04x, want 0xb861", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data is padded with a zero byte.
	even := Checksum([]byte{0x01, 0x02, 0x03, 0x00})
	odd := Checksum([]byte{0x01, 0x02, 0x03})
	if even != odd {
		t.Errorf("odd-length pad: %#x vs %#x", odd, even)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Dst: MustMAC("aa:bb:cc:dd:ee:ff"), Src: MustMAC("11:22:33:44:55:66"), EtherType: EtherTypeIPv4}
	b := e.Serialize(nil)
	if len(b) != 14 {
		t.Fatalf("len = %d", len(b))
	}
	got, rest, err := DecodeEthernet(append(b, 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *e {
		t.Errorf("round trip: %+v", got)
	}
	if !bytes.Equal(rest, []byte{0xde, 0xad}) {
		t.Errorf("payload: %x", rest)
	}
	if _, _, err := DecodeEthernet(b[:13]); err == nil {
		t.Error("short ethernet should error")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{
		Op:       ARPRequest,
		SenderHW: MustMAC("11:22:33:44:55:66"),
		SenderIP: MustIP4("10.0.0.1"),
		TargetHW: MAC{},
		TargetIP: MustIP4("10.0.0.2"),
	}
	b := a.Serialize(nil)
	if len(b) != 28 {
		t.Fatalf("len = %d", len(b))
	}
	got, err := DecodeARP(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := DecodeARP(b[:27]); err == nil {
		t.Error("short arp should error")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := &IPv4{
		TOS: 0, TotalLen: 40, ID: 7, Flags: 2, FragOff: 0,
		TTL: 64, Protocol: IPProtoTCP, Checksum: 0x1234,
		Src: MustIP4("192.168.0.1"), Dst: MustIP4("192.168.0.2"),
	}
	b := ip.Serialize(nil)
	got, rest, err := DecodeIPv4(append(b, 0x99))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ip {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, ip)
	}
	if len(rest) != 1 {
		t.Errorf("payload len = %d", len(rest))
	}
	if _, _, err := DecodeIPv4(b[:19]); err == nil {
		t.Error("short ipv4 should error")
	}
	bad := append([]byte{}, b...)
	bad[0] = 0x65 // version 6
	if _, _, err := DecodeIPv4(bad); err == nil {
		t.Error("wrong version should error")
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, TotalLen: 28,
		Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2")}
	hdr := Serialize(ip) // fills the zero checksum
	if got := Checksum(hdr); got != 0 {
		t.Errorf("checksum over checksummed header = %#x, want 0", got)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := &TCP{SrcPort: 1234, DstPort: 80, Seq: 99, Ack: 100,
		Flags: TCPSyn | TCPAck, Window: 65535, Checksum: 0xaaaa, Urgent: 0}
	b := tc.Serialize(nil)
	got, rest, err := DecodeTCP(append(b, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *tc {
		t.Errorf("round trip: %+v", got)
	}
	if len(rest) != 3 {
		t.Errorf("payload len = %d", len(rest))
	}
	if _, _, err := DecodeTCP(b[:19]); err == nil {
		t.Error("short tcp should error")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDP{SrcPort: 53, DstPort: 5353, Length: 20, Checksum: 0xbbbb}
	b := u.Serialize(nil)
	got, _, err := DecodeUDP(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *u {
		t.Errorf("round trip: %+v", got)
	}
	if _, _, err := DecodeUDP(b[:7]); err == nil {
		t.Error("short udp should error")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	ic := &ICMP{Type: ICMPEchoRequest, Code: 0, Checksum: 0x1111, ID: 42, Seq: 7}
	b := ic.Serialize(nil)
	got, _, err := DecodeICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ic {
		t.Errorf("round trip: %+v", got)
	}
}

func TestSerializeFixesIPv4Fields(t *testing.T) {
	b := Serialize(
		&Ethernet{Dst: Broadcast, Src: MustMAC("11:22:33:44:55:66"), EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2")},
		&UDP{SrcPort: 1000, DstPort: 2000},
		Payload("hello"),
	)
	_, ipb, err := DecodeEthernet(b)
	if err != nil {
		t.Fatal(err)
	}
	ip, rest, err := DecodeIPv4(ipb)
	if err != nil {
		t.Fatal(err)
	}
	if int(ip.TotalLen) != 20+8+5 {
		t.Errorf("TotalLen = %d, want 33", ip.TotalLen)
	}
	if Checksum(ipb[:20]) != 0 {
		t.Error("IPv4 checksum not valid")
	}
	u, payload, err := DecodeUDP(rest)
	if err != nil {
		t.Fatal(err)
	}
	if int(u.Length) != 13 {
		t.Errorf("UDP length = %d, want 13", u.Length)
	}
	if string(payload) != "hello" {
		t.Errorf("payload = %q", payload)
	}
	// Verify UDP checksum by recomputing over pseudo-header + segment.
	if got := pseudoHeaderChecksum(ip.Src, ip.Dst, IPProtoUDP, rest); got != 0 {
		t.Errorf("UDP checksum verify = %#x, want 0", got)
	}
}

func TestSerializeTCPChecksum(t *testing.T) {
	b := Serialize(
		&Ethernet{Dst: MustMAC("aa:aa:aa:aa:aa:aa"), Src: MustMAC("bb:bb:bb:bb:bb:bb"), EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoTCP, Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2")},
		&TCP{SrcPort: 5001, DstPort: 5201, Seq: 1},
		Payload(strings.Repeat("x", 100)),
	)
	_, ipb, _ := DecodeEthernet(b)
	ip, rest, err := DecodeIPv4(ipb)
	if err != nil {
		t.Fatal(err)
	}
	if got := pseudoHeaderChecksum(ip.Src, ip.Dst, IPProtoTCP, rest); got != 0 {
		t.Errorf("TCP checksum verify = %#x, want 0", got)
	}
}

func TestSerializeICMPChecksum(t *testing.T) {
	b := Serialize(
		&Ethernet{Dst: MustMAC("aa:aa:aa:aa:aa:aa"), Src: MustMAC("bb:bb:bb:bb:bb:bb"), EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoICMP, Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2")},
		&ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 2},
		Payload("ping-data"),
	)
	_, ipb, _ := DecodeEthernet(b)
	_, rest, err := DecodeIPv4(ipb)
	if err != nil {
		t.Fatal(err)
	}
	if got := Checksum(rest); got != 0 {
		t.Errorf("ICMP checksum verify = %#x, want 0", got)
	}
}

func TestSerializeRespectsExplicitFields(t *testing.T) {
	// Non-zero checksum and length fields are passed through untouched.
	b := Serialize(
		&IPv4{TTL: 1, Protocol: IPProtoUDP, TotalLen: 999, Checksum: 0xdead,
			Src: MustIP4("1.1.1.1"), Dst: MustIP4("2.2.2.2")},
	)
	ip, _, err := DecodeIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TotalLen != 999 || ip.Checksum != 0xdead {
		t.Errorf("explicit fields overwritten: %+v", ip)
	}
}

func TestSummary(t *testing.T) {
	cases := []struct {
		layers []Layer
		want   string
	}{
		{
			[]Layer{&Ethernet{Src: MustMAC("11:22:33:44:55:66"), Dst: Broadcast, EtherType: EtherTypeARP},
				&ARP{Op: ARPRequest, SenderIP: MustIP4("10.0.0.1"), TargetIP: MustIP4("10.0.0.2")}},
			"who-has 10.0.0.2",
		},
		{
			[]Layer{&Ethernet{Src: MustMAC("11:22:33:44:55:66"), Dst: Broadcast, EtherType: EtherTypeIPv4},
				&IPv4{TTL: 64, Protocol: IPProtoICMP, Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2")},
				&ICMP{Type: ICMPEchoRequest, ID: 3, Seq: 4}},
			"echo-request",
		},
		{
			[]Layer{&Ethernet{Src: MustMAC("11:22:33:44:55:66"), Dst: Broadcast, EtherType: EtherTypeIPv4},
				&IPv4{TTL: 64, Protocol: IPProtoTCP, Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2")},
				&TCP{SrcPort: 1, DstPort: 2}},
			"TCP 1 > 2",
		},
	}
	for _, c := range cases {
		got := Summary(Serialize(c.layers...))
		if !strings.Contains(got, c.want) {
			t.Errorf("Summary = %q, want substring %q", got, c.want)
		}
	}
	if got := Summary([]byte{1, 2}); !strings.Contains(got, "short") {
		t.Errorf("short packet summary = %q", got)
	}
}

func TestPropChecksumDetectsSingleBitFlip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+r.Intn(64)*2) // even length
		r.Read(data)
		ck := Checksum(data)
		// Embed checksum; full sum must be zero.
		withCk := append(append([]byte{}, data...), 0, 0)
		binary.BigEndian.PutUint16(withCk[len(data):], ck)
		if Checksum(withCk) != 0 {
			return false
		}
		// Flip one bit: checksum must no longer verify.
		i := r.Intn(len(data))
		bit := byte(1) << r.Intn(8)
		withCk[i] ^= bit
		return Checksum(withCk) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEthernetRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16, payload []byte) bool {
		e := &Ethernet{Dst: dst, Src: src, EtherType: et}
		b := e.Serialize(nil)
		b = append(b, payload...)
		got, rest, err := DecodeEthernet(b)
		return err == nil && *got == *e && bytes.Equal(rest, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
