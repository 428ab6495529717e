package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/classbench"
	"repro/internal/rule"
	"repro/internal/wire"
)

func TestRunSyntheticEndToEnd(t *testing.T) {
	// Synthetic inputs through the whole pipeline on both devices; the
	// asic run also exercises the -telemetry serving path end to end.
	for i, device := range []string{"asic", "fpga"} {
		telem := ""
		if i == 0 {
			telem = "127.0.0.1:0"
		}
		if err := run("", "", "acl1", 300, 2000, 7, "hypercuts", device, 1, 4, 120, telem, 0, "", "", 512); err != nil {
			t.Fatalf("%s: %v", device, err)
		}
	}
}

func TestRunFromFiles(t *testing.T) {
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "rules.txt")
	tracePath := filepath.Join(dir, "trace.txt")

	rs := classbench.Generate(classbench.IPC1(), 150, 9)
	rf, err := os.Create(rulesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rule.WriteSet(rf, rs); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	trace := classbench.GenerateTrace(rs, 500, 10)
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rule.WriteTrace(tf, trace); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	if err := run(rulesPath, tracePath, "", 0, 0, 0, "hicuts", "asic", 0, 4, 120, "", 0, "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", "", "acl1", 50, 100, 1, "bogus", "asic", 1, 4, 120, "", 0, "", "", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run("", "", "acl1", 50, 100, 1, "hicuts", "bogus", 1, 4, 120, "", 0, "", "", 0); err == nil {
		t.Error("unknown device accepted")
	}
	if err := run("/does/not/exist", "", "", 0, 0, 0, "hicuts", "asic", 1, 4, 120, "", 0, "", "", 0); err == nil {
		t.Error("missing rules file accepted")
	}
	if err := run("", "", "acl1", 50, 100, 1, "hicuts", "asic", 2, 4, 120, "", 0, "", "", 0); err == nil {
		t.Error("-speed 2 accepted")
	}
	if err := run("", "", "acl1", 50, 100, 1, "hicuts", "asic", 1, 4, 120, "", time.Second, "", "", 0); err == nil {
		t.Error("-hold without -telemetry accepted")
	}
}

func TestRunSaveRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	imgPath := filepath.Join(dir, "acl1.pcei")

	// -save writes the compiled engine image alongside a normal run.
	if err := run("", "", "acl1", 300, 1000, 7, "hypercuts", "asic", 1, 4, 120, "", 0, imgPath, "", 0); err != nil {
		t.Fatalf("save run: %v", err)
	}
	if fi, err := os.Stat(imgPath); err != nil || fi.Size() == 0 {
		t.Fatalf("image not written: %v (size %v)", err, fi)
	}

	// -restore boots from the image, runs the device model once the
	// background rebuild lands, and honours -save: with no churn in
	// between, the re-saved image is the file it booted from.
	resaved := filepath.Join(dir, "resaved.pcei")
	if err := run("", "", "acl1", 300, 1000, 7, "hypercuts", "asic", 1, 4, 120, "", 0, resaved, imgPath, 0); err != nil {
		t.Fatalf("restore run: %v", err)
	}
	data, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(resaved); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("-save under -restore: image differs from the one restored (err %v)", err)
	}

	// A corrupt image must fail closed, not serve garbage.
	data[len(data)/2] ^= 0x40
	badPath := filepath.Join(dir, "bad.pcei")
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", "acl1", 300, 1000, 7, "hypercuts", "asic", 1, 4, 120, "", 0, "", badPath, 0); err == nil {
		t.Error("corrupt image accepted")
	}
	if err := run("", "", "acl1", 300, 1000, 7, "hypercuts", "asic", 1, 4, 120, "", 0, "", filepath.Join(dir, "missing.pcei"), 0); err == nil {
		t.Error("missing image accepted")
	}
}

func TestRunAutoDetectsBinaryAndPcapTraces(t *testing.T) {
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "rules.txt")
	rs := classbench.Generate(classbench.ACL1(), 100, 9)
	rf, err := os.Create(rulesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rule.WriteSet(rf, rs); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	trace := classbench.GenerateTrace(rs, 400, 10)

	write := func(name string, enc func(io.Writer, []rule.Packet) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f, trace); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	for name, path := range map[string]string{
		"binary": write("trace.bin", wire.WriteTrace),
		"pcap":   write("trace.pcap", wire.WritePcap),
	} {
		if err := run(rulesPath, path, "", 0, 0, 0, "hypercuts", "asic", 1, 4, 120, "", 0, "", "", 0); err != nil {
			t.Fatalf("%s trace: %v", name, err)
		}
	}
}
