package pkt

import (
	"encoding/binary"
	"fmt"
)

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// Len implements Layer.
func (e *Ethernet) Len() int { return 14 }

// Serialize implements Layer.
func (e *Ethernet) Serialize(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return binary.BigEndian.AppendUint16(b, e.EtherType)
}

// DecodeEthernet parses an Ethernet header and returns it with the payload.
func DecodeEthernet(b []byte) (*Ethernet, []byte, error) {
	if len(b) < 14 {
		return nil, nil, fmt.Errorf("pkt: ethernet too short (%d bytes)", len(b))
	}
	e := &Ethernet{EtherType: binary.BigEndian.Uint16(b[12:14])}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	return e, b[14:], nil
}

// ARP is an IPv4-over-Ethernet ARP message.
type ARP struct {
	Op       uint16 // ARPRequest or ARPReply
	SenderHW MAC
	SenderIP IP4
	TargetHW MAC
	TargetIP IP4
}

// Len implements Layer.
func (a *ARP) Len() int { return 28 }

// Serialize implements Layer.
func (a *ARP) Serialize(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1)             // htype: ethernet
	b = binary.BigEndian.AppendUint16(b, EtherTypeIPv4) // ptype
	b = append(b, 6, 4)                                 // hlen, plen
	b = binary.BigEndian.AppendUint16(b, a.Op)
	b = append(b, a.SenderHW[:]...)
	b = append(b, a.SenderIP[:]...)
	b = append(b, a.TargetHW[:]...)
	return append(b, a.TargetIP[:]...)
}

// DecodeARP parses an ARP message.
func DecodeARP(b []byte) (*ARP, error) {
	if len(b) < 28 {
		return nil, fmt.Errorf("pkt: arp too short (%d bytes)", len(b))
	}
	a := &ARP{Op: binary.BigEndian.Uint16(b[6:8])}
	copy(a.SenderHW[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetHW[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	return a, nil
}

// IPv4 is an IPv4 header without options.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16 // filled by Packet.Serialize when zero
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16 // filled by Packet.Serialize when zero
	Src      IP4
	Dst      IP4
}

// Len implements Layer.
func (ip *IPv4) Len() int { return 20 }

// Serialize implements Layer.
func (ip *IPv4) Serialize(b []byte) []byte {
	b = append(b, 0x45, ip.TOS)
	b = binary.BigEndian.AppendUint16(b, ip.TotalLen)
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b = append(b, ip.TTL, ip.Protocol)
	b = binary.BigEndian.AppendUint16(b, ip.Checksum)
	b = append(b, ip.Src[:]...)
	return append(b, ip.Dst[:]...)
}

// DecodeIPv4 parses an IPv4 header and returns it with the payload.
func DecodeIPv4(b []byte) (*IPv4, []byte, error) {
	if len(b) < 20 {
		return nil, nil, fmt.Errorf("pkt: ipv4 too short (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return nil, nil, fmt.Errorf("pkt: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < 20 || len(b) < ihl {
		return nil, nil, fmt.Errorf("pkt: bad IHL %d", ihl)
	}
	ip := &IPv4{
		TOS:      b[1],
		TotalLen: binary.BigEndian.Uint16(b[2:4]),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Flags:    b[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(b[6:8]) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Checksum: binary.BigEndian.Uint16(b[10:12]),
	}
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	return ip, b[ihl:], nil
}

// ICMP is an ICMP echo message header.
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16 // filled by Packet.Serialize when zero
	ID       uint16
	Seq      uint16
}

// Len implements Layer.
func (ic *ICMP) Len() int { return 8 }

// Serialize implements Layer.
func (ic *ICMP) Serialize(b []byte) []byte {
	b = append(b, ic.Type, ic.Code)
	b = binary.BigEndian.AppendUint16(b, ic.Checksum)
	b = binary.BigEndian.AppendUint16(b, ic.ID)
	return binary.BigEndian.AppendUint16(b, ic.Seq)
}

// DecodeICMP parses an ICMP echo header and returns it with the payload.
func DecodeICMP(b []byte) (*ICMP, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("pkt: icmp too short (%d bytes)", len(b))
	}
	return &ICMP{
		Type:     b[0],
		Code:     b[1],
		Checksum: binary.BigEndian.Uint16(b[2:4]),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Seq:      binary.BigEndian.Uint16(b[6:8]),
	}, b[8:], nil
}

// TCP is a TCP header without options.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8 // FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08 ACK=0x10
	Window   uint16
	Checksum uint16 // filled by Packet.Serialize when zero
	Urgent   uint16
}

// TCP flag bits.
const (
	TCPFin = 0x01
	TCPSyn = 0x02
	TCPRst = 0x04
	TCPPsh = 0x08
	TCPAck = 0x10
)

// Len implements Layer.
func (t *TCP) Len() int { return 20 }

// Serialize implements Layer.
func (t *TCP) Serialize(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, t.Flags) // data offset 5 words
	b = binary.BigEndian.AppendUint16(b, t.Window)
	b = binary.BigEndian.AppendUint16(b, t.Checksum)
	return binary.BigEndian.AppendUint16(b, t.Urgent)
}

// DecodeTCP parses a TCP header and returns it with the payload.
func DecodeTCP(b []byte) (*TCP, []byte, error) {
	if len(b) < 20 {
		return nil, nil, fmt.Errorf("pkt: tcp too short (%d bytes)", len(b))
	}
	off := int(b[12]>>4) * 4
	if off < 20 || len(b) < off {
		return nil, nil, fmt.Errorf("pkt: bad TCP data offset %d", off)
	}
	return &TCP{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Seq:      binary.BigEndian.Uint32(b[4:8]),
		Ack:      binary.BigEndian.Uint32(b[8:12]),
		Flags:    b[13],
		Window:   binary.BigEndian.Uint16(b[14:16]),
		Checksum: binary.BigEndian.Uint16(b[16:18]),
		Urgent:   binary.BigEndian.Uint16(b[18:20]),
	}, b[off:], nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // filled by Packet.Serialize when zero
	Checksum uint16 // filled by Packet.Serialize when zero
}

// Len implements Layer.
func (u *UDP) Len() int { return 8 }

// Serialize implements Layer.
func (u *UDP) Serialize(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, u.Length)
	return binary.BigEndian.AppendUint16(b, u.Checksum)
}

// DecodeUDP parses a UDP header and returns it with the payload.
func DecodeUDP(b []byte) (*UDP, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("pkt: udp too short (%d bytes)", len(b))
	}
	return &UDP{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}, b[8:], nil
}

// Payload is raw bytes appended after the last protocol header.
type Payload []byte

// Len implements Layer.
func (p Payload) Len() int { return len(p) }

// Serialize implements Layer.
func (p Payload) Serialize(b []byte) []byte { return append(b, p...) }
