package transform

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"modpeg/internal/grammars"
	"modpeg/internal/peg"
	"modpeg/internal/vm"
)

// TestPipelineGoldens pins the optimizer's output for every bundled top
// module under the default pipeline and the naive-packrat baseline: the
// transformed grammar as printed (production order and attributes
// included), the pass report, and the memo columns each engine assigns.
// Any change to the analysis the passes read shows up here as a diff;
// when a change to the output is intended, the failure prints the new
// contents of the golden file.
func TestPipelineGoldens(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{{"defaults", Defaults()}, {"baseline", Baseline()}}
	for _, top := range grammars.TopModules() {
		for _, c := range configs {
			t.Run(top+"/"+c.name, func(t *testing.T) {
				g, err := grammars.Compose(top)
				if err != nil {
					t.Fatal(err)
				}
				tg, rep, err := Apply(g, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := vm.Compile(tg, vm.Optimized())
				if err != nil {
					t.Fatal(err)
				}
				comp, err := vm.Compile(tg, vm.CompiledEngine())
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%s\n-- report --\n%s-- memo columns --\noptimized: %d\ncompiled: %d\n",
					peg.FormatGrammar(tg), rep, opt.MemoColumns(), comp.MemoColumns())
				path := filepath.Join("testdata", top+"."+c.name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("output drifted from %s\n--- got ---\n%s", path, got)
				}
			})
		}
	}
}
