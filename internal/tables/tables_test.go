package tables

import (
	"context"
	"strings"
	"testing"

	"syncsim/internal/core"
)

// outcomes runs a tiny two-benchmark suite once for all table tests.
func outcomes(t *testing.T) []*core.Outcome {
	t.Helper()
	outs, err := core.RunSuiteCtx(context.Background(), core.NewOptions(
		core.WithScale(0.02),
		core.WithSeed(1),
		core.WithOnly("Pdsa", "Qsort"),
	))
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestAllTablesRender(t *testing.T) {
	outs := outcomes(t)
	renderers := map[string]func([]*core.Outcome) string{
		"Table 1": Table1, "Table 2": Table2, "Table 3": Table3,
		"Table 4": Table4, "Table 5": Table5, "Table 6": Table6,
		"Table 7": Table7, "Table 8": Table8,
	}
	for title, fn := range renderers {
		out := fn(outs)
		if !strings.Contains(out, title) {
			t.Errorf("%s output missing its title:\n%s", title, out)
		}
		if !strings.Contains(out, "Pdsa") {
			t.Errorf("%s missing benchmark row", title)
		}
	}
	all := All(outs)
	for i := 1; i <= 8; i++ {
		if !strings.Contains(all, "Table "+string(rune('0'+i))) {
			t.Errorf("All() missing table %d", i)
		}
	}
	if !strings.Contains(all, "decomposition") {
		t.Error("All() missing the decomposition section")
	}
}

func TestTable2MarksLockFreePrograms(t *testing.T) {
	opts := core.NewOptions(core.WithScale(0.01), core.WithOnly("Topopt"))
	opts.Models = []core.Model{} // ideal statistics only
	outs, err := core.RunSuiteCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	out := Table2(outs)
	if !strings.Contains(out, "N/A") {
		t.Errorf("Table 2 should mark Topopt's hold time N/A:\n%s", out)
	}
}

func TestContentionTablesSkipLockFree(t *testing.T) {
	outs, err := core.RunSuiteCtx(context.Background(), core.NewOptions(
		core.WithScale(0.01),
		core.WithOnly("Topopt"),
		core.WithModels(core.ModelQueue),
	))
	if err != nil {
		t.Fatal(err)
	}
	out := Table4(outs)
	if strings.Contains(out, "Topopt") {
		t.Errorf("Table 4 must omit the lock-free benchmark:\n%s", out)
	}
}

func TestPaperColumnsPresent(t *testing.T) {
	outs := outcomes(t)
	// Pdsa's paper utilisation (40.3) appears in Table 3's paper column.
	if out := Table3(outs); !strings.Contains(out, "40.3") {
		t.Errorf("Table 3 missing paper value:\n%s", out)
	}
	// Pdsa's paper waiter count (6.18) appears in Table 4.
	if out := Table4(outs); !strings.Contains(out, "6.18") {
		t.Errorf("Table 4 missing paper value:\n%s", out)
	}
}

func TestDecompositionTable(t *testing.T) {
	outs := outcomes(t)
	out := Decomposition(outs)
	if !strings.Contains(out, "Pdsa") {
		t.Errorf("decomposition missing contended benchmark:\n%s", out)
	}
	if !strings.Contains(out, "Slowdown") {
		t.Errorf("decomposition missing header:\n%s", out)
	}
}

func TestWriterAlignment(t *testing.T) {
	var w writer
	w.row("A", "BBBB")
	w.row("CCCC", "D")
	out := w.render("title")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, rule, header, rule, row
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[2]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}
