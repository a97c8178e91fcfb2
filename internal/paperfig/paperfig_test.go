package paperfig

import (
	"fmt"
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/incr"
)

// logTable prints an experiment's rows to the test log, so that
// `go test -v ./internal/paperfig` regenerates every table.
func logTable(t *testing.T, rows []Row) {
	t.Helper()
	var b strings.Builder
	Print(&b, rows)
	t.Log("\n" + b.String())
}

// rowsBy returns rows matching a config substring and system.
func rowsBy(rows []Row, config, system string) []Row {
	var out []Row
	for _, r := range rows {
		if strings.Contains(r.Config, config) && r.System == system {
			out = append(out, r)
		}
	}
	return out
}

func one(t *testing.T, rows []Row, config, system string) Row {
	t.Helper()
	got := rowsBy(rows, config, system)
	if len(got) != 1 {
		t.Fatalf("want exactly one row for %s/%s, got %d", config, system, len(got))
	}
	return got[0]
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig1(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	bash2 := one(t, rows, "Standard", "bash").Seconds
	pash2 := one(t, rows, "Standard", "pash").Seconds
	jash2 := one(t, rows, "Standard", "jash").Seconds
	bash3 := one(t, rows, "IO-opt", "bash").Seconds
	pash3 := one(t, rows, "IO-opt", "pash").Seconds
	jash3 := one(t, rows, "IO-opt", "jash").Seconds
	// The paper's shape: PaSh regresses on Standard, Jash never does;
	// both beat bash on IO-opt, Jash at least matching PaSh.
	if !(pash2 > bash2) {
		t.Errorf("Standard: pash %.1f should exceed bash %.1f", pash2, bash2)
	}
	if jash2 > bash2*1.01 {
		t.Errorf("Standard: jash %.1f regressed vs bash %.1f", jash2, bash2)
	}
	if !(pash3 < bash3 && jash3 < bash3) {
		t.Errorf("IO-opt: pash %.1f / jash %.1f should beat bash %.1f", pash3, jash3, bash3)
	}
	if jash3 > pash3*1.01 {
		t.Errorf("IO-opt: jash %.1f should be <= pash %.1f", jash3, pash3)
	}
}

func TestTemperatureAgreesWithOracle(t *testing.T) {
	rows, err := Temperature(50_000)
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[0].Note, "answer=") || rows[0].Note[len(rows[0].Note)-4:] != rows[1].Note[7:11] {
		// Both notes carry answer=NNNN; Temperature() already errors on
		// disagreement, so this is a formatting sanity check.
		if !strings.Contains(rows[1].Note, "answer=") {
			t.Errorf("notes = %q / %q", rows[0].Note, rows[1].Note)
		}
	}
}

func TestSpellOnlyJITOptimizes(t *testing.T) {
	rows, err := Spell(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	var bashRow, jashRow Row
	for _, r := range rows {
		switch r.System {
		case "bash":
			bashRow = r
		case "jash":
			jashRow = r
		}
	}
	if !strings.Contains(jashRow.Note, "JIT expanded") {
		t.Errorf("jash note = %q", jashRow.Note)
	}
	if strings.Contains(bashRow.Note, "JIT") || !strings.Contains(bashRow.Note, "sequential estimate") {
		t.Errorf("bash note = %q", bashRow.Note)
	}
	// The same graph, unparallelized: never faster than the plan Jash chose.
	if bashRow.Seconds <= 0 || bashRow.Seconds < jashRow.Seconds {
		t.Errorf("bash %.4fs vs jash %.4fs: want a positive sequential estimate ≥ jash's", bashRow.Seconds, jashRow.Seconds)
	}
}

func TestNoRegressionHolds(t *testing.T) {
	rows, err := NoRegression()
	logTable(t, rows)
	if err != nil {
		t.Fatal(err)
	}
}

func TestScalingWidthFindsPerDeviceOptimum(t *testing.T) {
	rows, err := ScalingWidth()
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	var gp2Best, gp3Best string
	for _, r := range rows {
		if r.System != "optimum" {
			continue
		}
		if strings.HasPrefix(r.Config, "gp2") {
			gp2Best = r.Note
		} else {
			gp3Best = r.Note
		}
	}
	if gp2Best == "" || gp3Best == "" {
		t.Fatalf("optima missing: %v", rows)
	}
	if gp2Best == gp3Best {
		t.Errorf("same optimum on both devices (%s) — resource awareness shows nothing", gp2Best)
	}
}

// TestIncrementalSpeedups checks what the incremental runner claims, by
// its own counts rather than by two wall-clock readings: the warm run is
// one memo hit that reprocesses none of the log, and the append run one
// suffix run that reprocesses only the appended bytes, with the output a
// cold run over the grown log makes. The timed rows are logged.
func TestIncrementalSpeedups(t *testing.T) {
	e, err := runIncremental(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, e.rows())
	if want := (incr.Stats{Hits: 1, BytesSaved: int64(e.logLen)}); e.warm.stats != want {
		t.Errorf("warm run counted %+v, want %+v", e.warm.stats, want)
	}
	if want := (incr.Stats{Incremental: 1, BytesSaved: int64(e.logLen)}); e.appended.stats != want {
		t.Errorf("append run counted %+v, want %+v", e.appended.stats, want)
	}
	if e.warm.out != e.cold.out {
		t.Error("the warm run's output is not the cold run's")
	}
	if e.appended.out != e.grown.out || e.appended.out == e.cold.out {
		t.Errorf("the append run's output (%d bytes) is not a cold run's over the grown log (%d bytes)", len(e.appended.out), len(e.grown.out))
	}
}

func TestDistributionPlacementWins(t *testing.T) {
	rows, err := Distribution(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	var central, placement Row
	for _, r := range rows {
		if r.System == "central" {
			central = r
		} else {
			placement = r
		}
	}
	if placement.Seconds >= central.Seconds {
		t.Errorf("placement %.2fs should beat central %.2fs", placement.Seconds, central.Seconds)
	}
}

// TestDataMovementBoundedBuffering: the executor really moves the bytes,
// and no node ever holds more than its lanes' pipes can: peak buffered
// stays within width × the per-edge pipe capacity.
func TestDataMovementBoundedBuffering(t *testing.T) {
	rows, err := DataMovement(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	var moved, peak, capacity int64
	ex := one(t, rows, "width=4", "executor")
	if _, err := fmt.Sscanf(ex.Note, "measured %d bytes moved, max peak buffered %d (cap %d/edge)", &moved, &peak, &capacity); err != nil {
		t.Fatalf("executor note %q: %v", ex.Note, err)
	}
	if moved <= 0 {
		t.Errorf("bytes moved = %d, want > 0", moved)
	}
	if bound := int64(4 * cost.PipeBufferBytes); peak > bound {
		t.Errorf("peak buffered %d exceeds width × pipe capacity %d", peak, bound)
	}
}

func TestLintCorpus(t *testing.T) {
	rows, err := Lint()
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	if rows[0].Seconds < 9 {
		t.Errorf("total findings = %.0f, want >= 9 (one per buggy script)", rows[0].Seconds)
	}
}

func TestInferAgreementHigh(t *testing.T) {
	rows, err := InferAgreement()
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	if rows[0].Seconds < 0.9 {
		t.Errorf("agreement = %.2f: %s", rows[0].Seconds, rows[0].Note)
	}
}

func TestPrintFormatting(t *testing.T) {
	var sb strings.Builder
	Print(&sb, []Row{{"x", "cfg", "sys", 1.5, "note"}})
	out := sb.String()
	if !strings.Contains(out, "experiment") || !strings.Contains(out, "1.50s") {
		t.Errorf("Print output: %q", out)
	}
}

func TestAblationOrdering(t *testing.T) {
	rows, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	logTable(t, rows)
	secs := map[string]float64{}
	for _, r := range rows {
		secs[r.System] = r.Seconds
	}
	// Each ingredient must not hurt: full <= each single ablation <= neither.
	if !(secs["full"] <= secs["fixed-w8"]+1e-9) {
		t.Errorf("full %.1f should be <= fixed-w8 %.1f", secs["full"], secs["fixed-w8"])
	}
	if !(secs["full"] <= secs["buffered"]+1e-9) {
		t.Errorf("full %.1f should be <= buffered %.1f", secs["full"], secs["buffered"])
	}
	if !(secs["buffered"] <= secs["neither"]+1e-9) {
		t.Errorf("buffered %.1f should be <= neither %.1f", secs["buffered"], secs["neither"])
	}
}
