// Package pkt provides encoding and decoding for the protocol layers used by
// the HyPer4 evaluation: Ethernet, ARP, IPv4, ICMP, TCP, and UDP.
//
// The API follows the layered style of gopacket: each layer is a struct with
// exported fields, a Decode method that consumes bytes, and a Serialize
// method that produces them. Packet assembles a layer stack into wire bytes
// and computes the checksums that depend on enclosing layers.
package pkt

import (
	"encoding/binary"
	"fmt"
	"net"
)

// EtherTypes and IP protocol numbers used throughout the repo.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806

	IPProtoICMP = 1
	IPProtoTCP  = 6
	IPProtoUDP  = 17

	ARPRequest = 1
	ARPReply   = 2

	ICMPEchoRequest = 8
	ICMPEchoReply   = 0
)

// Layer is one protocol layer of a packet.
type Layer interface {
	// Serialize appends the wire form of the layer to b and returns the
	// extended slice. Length and checksum fields that depend on the payload
	// are fixed up by Packet.Serialize, not here.
	Serialize(b []byte) []byte
	// Len returns the wire length of this layer's header in bytes.
	Len() int
}

// MAC is a 6-byte hardware address.
type MAC [6]byte

// ParseMAC parses a colon-separated MAC address.
func ParseMAC(s string) (MAC, error) {
	hw, err := net.ParseMAC(s)
	if err != nil || len(hw) != 6 {
		return MAC{}, fmt.Errorf("pkt: bad MAC %q", s)
	}
	var m MAC
	copy(m[:], hw)
	return m, nil
}

// MustMAC is ParseMAC that panics on error, for tests and fixtures.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the address in colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones MAC address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IP4 is an IPv4 address.
type IP4 [4]byte

// ParseIP4 parses a dotted-quad IPv4 address.
func ParseIP4(s string) (IP4, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		return IP4{}, fmt.Errorf("pkt: bad IPv4 %q", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return IP4{}, fmt.Errorf("pkt: not IPv4 %q", s)
	}
	var out IP4
	copy(out[:], v4)
	return out, nil
}

// MustIP4 is ParseIP4 that panics on error, for tests and fixtures.
func MustIP4(s string) IP4 {
	ip, err := ParseIP4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad form.
func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian integer.
func (ip IP4) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// Checksum computes the RFC 1071 internet checksum over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderChecksum computes the TCP/UDP pseudo-header + payload checksum.
func pseudoHeaderChecksum(src, dst IP4, proto uint8, segment []byte) uint16 {
	ph := make([]byte, 12, 12+len(segment))
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:12], uint16(len(segment)))
	ph = append(ph, segment...)
	return Checksum(ph)
}
