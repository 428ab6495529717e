package rule

import (
	"bufio"
	"fmt"
	"io"
)

// Packet trace serialization: one packet per line as five tab-separated
// decimal values "srcIP dstIP srcPort dstPort proto" (the format the
// ClassBench trace generator emits, minus its trailing flow ID, which is
// accepted and ignored on read).

// WriteTrace serializes a packet trace to w.
func WriteTrace(w io.Writer, trace []Packet) error {
	bw := bufio.NewWriter(w)
	for _, p := range trace {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\n",
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a packet trace from r. Blank lines and '#' comments
// are skipped; a sixth column (ClassBench flow ID) is tolerated.
func ReadTrace(r io.Reader) ([]Packet, error) {
	var trace []Packet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		p, ok, err := ParseTraceLineBytes(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if ok {
			trace = append(trace, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return trace, nil
}

// ParseTraceLineBytes parses one line of the trace format. ok is false
// for blank lines and '#' comments (and the zero Packet is returned);
// parse failures return an error without line context, which streaming
// callers wrap with their own position. It performs no allocations on
// any path (the fields are parsed in place, not split out), so streaming
// readers can feed it a scanner's reused token buffer and stay
// allocation-free per packet. The slice is not retained.
func ParseTraceLineBytes(line []byte) (p Packet, ok bool, err error) {
	i, n := 0, len(line)
	skipSpace := func() {
		for i < n && isSpace(line[i]) {
			i++
		}
	}
	skipSpace()
	if i == n || line[i] == '#' {
		return Packet{}, false, nil
	}
	var vals [5]uint64
	for f := 0; f < 5; f++ {
		skipSpace()
		start := i
		var v uint64
		for i < n && line[i] >= '0' && line[i] <= '9' {
			v = v*10 + uint64(line[i]-'0')
			if v > 1<<32-1 {
				return Packet{}, false, fmt.Errorf("field %d: value out of range", f+1)
			}
			i++
		}
		if i == start {
			if i < n {
				return Packet{}, false, fmt.Errorf("field %d: invalid syntax", f+1)
			}
			return Packet{}, false, fmt.Errorf("want 5 fields, got %d", f)
		}
		if i < n && !isSpace(line[i]) {
			return Packet{}, false, fmt.Errorf("field %d: invalid syntax", f+1)
		}
		vals[f] = v
	}
	// A sixth column (ClassBench flow ID) is tolerated; anything
	// non-numeric there is still an error.
	skipSpace()
	for i < n && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	skipSpace()
	if i < n {
		return Packet{}, false, fmt.Errorf("trailing garbage after packet fields")
	}
	if vals[2] > 0xFFFF || vals[3] > 0xFFFF {
		return Packet{}, false, fmt.Errorf("port out of range")
	}
	if vals[4] > 0xFF {
		return Packet{}, false, fmt.Errorf("protocol out of range")
	}
	return Packet{
		SrcIP:   uint32(vals[0]),
		DstIP:   uint32(vals[1]),
		SrcPort: uint16(vals[2]),
		DstPort: uint16(vals[3]),
		Proto:   uint8(vals[4]),
	}, true, nil
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}
