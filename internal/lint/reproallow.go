package lint

// reproallow lints the lint: the suppression and annotation directives
// are themselves checked, so an escape hatch can't rot into a blanket
// mute. //repro:allow must name a real analyzer and carry a non-empty
// justification after "--"; coldpath must carry a justification;
// unknown //repro: directives are flagged (usually a typo that would
// otherwise silently disable a check).

import (
	"slices"
	"strings"
)

var ReproAllowAnalyzer = &Analyzer{
	Name: "reproallow",
}

// Run reads Analyzers(), which lists ReproAllowAnalyzer: set in the
// variable's initializer that would be an initialization cycle.
func init() { ReproAllowAnalyzer.Run = runReproAllow }

func runReproAllow(pass *Pass) {
	var known []string
	for _, a := range Analyzers() {
		known = append(known, a.Name)
	}
	for _, d := range pass.dirs.all {
		switch d.kind {
		case "hotpath":
			// marker directive: no argument, no justification needed
		case "coldpath":
			if d.why == "" {
				pass.Reportf(d.pos, "//repro:%s requires a justification (//repro:%s <why>)", d.kind, d.kind)
			}
		case "allow":
			if !slices.Contains(known, d.arg) {
				pass.Reportf(d.pos, "//repro:allow names unknown analyzer %q (known: %s)", d.arg, strings.Join(known, ", "))
			}
			if d.why == "" {
				pass.Reportf(d.pos, "//repro:allow requires a justification (//repro:allow <analyzer> -- <why>)")
			}
		default:
			pass.Reportf(d.pos, "unknown directive //repro:%s", d.kind)
		}
	}
}
