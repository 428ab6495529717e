// Command pcsim builds the modified search structure for a ruleset and
// runs a packet trace through the cycle-accurate accelerator simulator,
// reporting memory, worst-case cycles, throughput and energy.
//
// Usage:
//
//	pcsim -rules rules.txt -tracefile trace.txt -algo hypercuts -device asic
//	pcsim -profile acl1 -n 2191 -trace 20000        # synthetic inputs
//
// Ruleset files are in ClassBench format (see cmd/pcgen); trace files hold
// either one "srcIP dstIP srcPort dstPort proto" decimal tuple per line,
// the framed binary wire format, or a pcap capture — the format is
// auto-detected from the first bytes.
//
// With -telemetry the host-engine measurement runs instrumented and the
// telemetry plane is exposed over HTTP — Prometheus text metrics on
// /metrics, the flight-recorder event ring on /debug/events, and pprof
// on /debug/pprof/ — for as long as -hold keeps the process alive:
//
//	pcsim -profile acl1 -n 2191 -telemetry 127.0.0.1:9090 -hold 60s &
//	curl -s http://127.0.0.1:9090/metrics | grep repro_packets_total
//	go tool pprof http://127.0.0.1:9090/debug/pprof/profile?seconds=5
//
// -save writes the serving engine's versioned image (internal/image)
// after the run; -restore boots from such an image instead of building —
// the cold-start path a restarting replica takes: the host engine
// classifies the trace at once, the search structure is rebuilt from the
// ruleset in the background, and the device simulation runs when it
// lands. Give -restore the ruleset inputs the image was saved with:
//
//	pcsim -profile acl1 -n 10000 -save acl1.pcei
//	pcsim -profile acl1 -n 10000 -restore acl1.pcei
//
// -cache N puts an N-entry flow cache in front of the host engine and
// prints its hit ratio, the packets its admission policy bypassed and the
// mode it ended in (a synthetic -trace is scatter traffic: "bypass").
//
// Everything goes through the public facade (package repro), so what
// pcsim prints is what a library user gets.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/energy"
	"repro/internal/rule"
	"repro/internal/stream"
	"repro/internal/wire"
)

func main() {
	var (
		rulesFile = flag.String("rules", "", "ClassBench ruleset file (overrides -profile)")
		traceFile = flag.String("tracefile", "", "packet trace file (overrides -trace)")
		profile   = flag.String("profile", "acl1", "synthetic profile when no -rules given")
		n         = flag.Int("n", 1000, "synthetic ruleset size")
		traceN    = flag.Int("trace", 20000, "synthetic trace length")
		seed      = flag.Int64("seed", 2008, "generation seed")
		algo      = flag.String("algo", "hypercuts", "hicuts or hypercuts")
		device    = flag.String("device", "asic", "asic or fpga")
		speed     = flag.Int("speed", 1, "speed parameter (0 or 1)")
		spfac     = flag.Int("spfac", 4, "space factor")
		binth     = flag.Int("binth", 120, "leaf threshold")
		telemAddr = flag.String("telemetry", "", "serve /metrics, /debug/events and /debug/pprof on this host:port (\":0\" picks a port)")
		hold      = flag.Duration("hold", 0, "keep serving telemetry this long after the run (requires -telemetry)")
		savePath  = flag.String("save", "", "write the serving engine image to this file after the run")
		restore   = flag.String("restore", "", "boot the host engine from an engine image; the search structure is rebuilt in the background")
		cache     = flag.Int("cache", 0, "flow-cache entries in front of the host engine (0 = no cache)")
	)
	flag.Parse()

	if err := run(*rulesFile, *traceFile, *profile, *n, *traceN, *seed, *algo, *device, *speed, *spfac, *binth, *telemAddr, *hold, *savePath, *restore, *cache); err != nil {
		fmt.Fprintln(os.Stderr, "pcsim:", err)
		os.Exit(1)
	}
}

func run(rulesFile, traceFile, profile string, n, traceN int, seed int64, algo, device string, speed, spfac, binth int, telemAddr string, hold time.Duration, savePath, restorePath string, cache int) error {
	if hold > 0 && telemAddr == "" {
		return errors.New("-hold keeps the telemetry server up and needs -telemetry")
	}
	cfg := repro.Config{Binth: binth, Spfac: spfac, TelemetryAddr: telemAddr, RestorePath: restorePath, CacheSize: cache}
	switch algo {
	case "hicuts":
		cfg.Algorithm = repro.HiCuts
	case "hypercuts":
		cfg.Algorithm = repro.HyperCuts
	default:
		return fmt.Errorf("unknown -algo %q", algo)
	}
	switch device {
	case "asic":
		cfg.Target = repro.TargetASIC
	case "fpga":
		cfg.Target = repro.TargetFPGA
	default:
		return fmt.Errorf("unknown -device %q", device)
	}
	switch speed {
	case 0:
		cfg.CompactLeaves = true
	case 1:
	default:
		return fmt.Errorf("-speed must be 0 or 1, got %d", speed)
	}

	// Inputs.
	var rs repro.RuleSet
	if rulesFile != "" {
		f, err := os.Open(rulesFile)
		if err != nil {
			return err
		}
		rs, err = rule.ReadSet(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		if rs, err = repro.GenerateRuleset(profile, n, seed); err != nil {
			return err
		}
	}
	var trace []repro.Packet
	if traceFile != "" {
		var err error
		if trace, err = readTraceFile(traceFile); err != nil {
			return err
		}
	} else {
		trace = repro.GenerateTrace(rs, traceN, seed+1)
	}

	// Build, or restore: a restored accelerator returns as soon as the
	// image is serving, before any search structure exists.
	start := time.Now()
	acc, err := repro.BuildAccelerator(rs, cfg)
	if err != nil {
		return err
	}
	defer acc.Close()
	if restorePath != "" {
		fmt.Printf("engine image: %s -> serving in %s (no control-plane build; the search structure rebuilds in the background)\n",
			restorePath, time.Since(start))
	}
	if addr := acc.TelemetryAddr(); addr != "" {
		fmt.Printf("telemetry: http://%s/metrics /debug/events /debug/pprof/\n", addr)
	}

	// Software fast path first: one timed pass in ingest-sized batches
	// (the flow cache re-decides its admission mode between batches),
	// which under -restore runs on the restored image without waiting
	// for the rebuild.
	host := make([]int32, len(trace))
	t0 := time.Now()
	for off := 0; off < len(trace); off += repro.StreamBatch {
		end := min(off+repro.StreamBatch, len(trace))
		acc.ClassifyBatch(trace[off:end], host[off:end])
	}
	hostPPS := float64(len(trace)) / time.Since(t0).Seconds()

	// The device model; these wait for a restore's rebuild.
	fmt.Printf("ruleset: %d rules; algorithm: %v; binth=%d spfac=%d speed=%d\n", len(rs), cfg.Algorithm, binth, spfac, speed)
	fmt.Printf("search structure: %d words = %d bytes\n", acc.Words(), acc.MemoryBytes())
	fmt.Printf("worst-case cycles/memory accesses per packet: %d\n", acc.WorstCaseCycles())
	guaranteed := acc.GuaranteedPPS()
	fmt.Printf("guaranteed throughput on %s: %.0f pps (line rate: %s)\n",
		acc.DeviceName(), guaranteed, energy.HighestLine(guaranteed))
	matches, st := acc.Run(trace)
	for i, m := range matches {
		if m != int(host[i]) {
			return fmt.Errorf("simulator/engine divergence: packet %d: device model matched rule %d, software engine %d", i, m, host[i])
		}
	}
	if err := acc.LoadError(); err != nil {
		fmt.Printf("NOTE: device memory not loaded (%v); the figures below are the analytical Eq. 5/7 walk\n", err)
	}
	fmt.Printf("trace: %d packets, %d matched (%.1f%%); software engine agrees on every packet\n",
		st.Packets, st.Matched, 100*float64(st.Matched)/float64(st.Packets))
	fmt.Printf("cycles: %d total, %.3f per packet sustained, worst observed latency %d\n",
		st.Cycles, st.AvgCyclesPerPacket, st.WorstLatency)
	fmt.Printf("throughput: %.0f pps on %s (%s)\n",
		st.PacketsPerSecond, acc.DeviceName(), energy.HighestLine(st.PacketsPerSecond))
	fmt.Printf("energy: %.3e J/packet\n", st.EnergyPerPacketJ)

	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		written, err := acc.SaveImage(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("saving engine image: %w", err)
		}
		fmt.Printf("engine image: %d bytes -> %s\n", written, savePath)
	}
	fmt.Printf("host engine (%d bytes flat): %.0f pps single-core, one pass (%s)\n",
		acc.SoftwareEngine().MemoryBytes(), hostPPS, energy.HighestLine(hostPPS))
	if cache > 0 {
		cs, mode := acc.CacheStats(), "normal"
		if cs.Bypassing {
			mode = "bypass"
		}
		fmt.Printf("flow cache (%d entries): hit ratio %.3f of %d probed, %d bypassed, admission mode %s\n",
			cs.Capacity, cs.HitRate(), cs.Hits+cs.Misses, cs.Bypassed, mode)
	}
	if hold > 0 {
		fmt.Printf("telemetry: holding for %s\n", hold)
		time.Sleep(hold)
	}
	return nil
}

// readTraceFile loads a packet trace, auto-detecting binary wire
// frames, a pcap capture, or text lines (see internal/stream.Detect).
func readTraceFile(path string) ([]repro.Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, _ := stream.Detect(bufio.NewReader(f))
	return wire.ReadAll(src)
}
