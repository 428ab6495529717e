package rule

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	trace := make([]Packet, 200)
	for i := range trace {
		trace[i] = Packet{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: uint8(rng.Intn(256)),
		}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trace) {
		t.Fatalf("length %d, want %d", len(got), len(trace))
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("packet %d: %+v != %+v", i, got[i], trace[i])
		}
	}
}

func TestReadTraceTolerant(t *testing.T) {
	in := "# comment\n\n1 2 3 4 5 99999\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Proto != 5 {
		t.Errorf("got %+v", got)
	}
}

func TestReadTraceErrors(t *testing.T) {
	for _, in := range []string{
		"1 2 3 4\n",       // too few
		"1 2 3 4 999\n",   // proto too big
		"1 2 70000 4 5\n", // port too big
		"1 2 x 4 5\n",     // not a number
	} {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTrace(%q) should fail", in)
		}
	}
}
