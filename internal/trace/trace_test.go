package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// stepClock returns a deterministic clock advancing 1ms per call.
func stepClock() func() time.Time {
	base := time.UnixMicro(1_000_000)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestDisabledTracerIsFreeAndAllocFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start(nil, "plan")
		sp.SetStr("k", "v").SetInt("n", 1).SetFloat("f", 2.5).SetBool("b", true)
		sp.EventInt("ev2", "n", 3)
		ch := sp.Child("child")
		ch.SetInt("bytes", 9)
		ch.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
}

func TestSpanTreeExportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Clock: stepClock()})
	root := tr.Start(nil, "pipeline")
	root.SetStr("text", "cat /a | sort")
	child := root.Child("execute")
	node := child.Child("node:sort")
	node.SetInt("bytes_in", 100)
	node.EventStr("retry", "cause", "injected")
	node.End()
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(d.Spans))
	}
	// Children end before parents, so order is node, execute, pipeline.
	if d.Spans[0].Name != "node:sort" || d.Spans[2].Name != "pipeline" {
		t.Fatalf("span order: %q, %q, %q", d.Spans[0].Name, d.Spans[1].Name, d.Spans[2].Name)
	}
	if d.Spans[0].Parent != d.Spans[1].ID || d.Spans[1].Parent != d.Spans[2].ID {
		t.Fatal("parent links broken")
	}
	if got := d.Spans[0].Attrs["bytes_in"]; got != float64(100) {
		t.Fatalf("bytes_in attr = %v", got)
	}
	if len(d.Spans[0].Events) != 1 || d.Spans[0].Events[0].Name != "retry" {
		t.Fatalf("events = %+v", d.Spans[0].Events)
	}
	if d.Spans[2].DurUS <= 0 {
		t.Fatalf("root duration = %d", d.Spans[2].DurUS)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Clock: stepClock()})
	sp := tr.Start(nil, "x")
	sp.End()
	sp.End()
	d, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Spans); n != 1 {
		t.Fatalf("double End recorded %d spans", n)
	}
}

// TestCheckNamesTheMissingParent: a span whose parent never ended (so was
// never written) fails Check, and the message names that parent.
func TestCheckNamesTheMissingParent(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Clock: stepClock()})
	leaked := tr.Start(nil, "command")
	leaked.Child("plan").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	bad := d.Check()
	if len(bad) != 1 || !strings.Contains(bad[0], "parent 1,") {
		t.Fatalf("Check = %q, want one failure naming parent 1", bad)
	}
	leaked.End()
	if d, _ = Read(strings.NewReader(buf.String())); len(d.Check()) != 0 {
		t.Fatalf("ending the parent still fails Check: %q", d.Check())
	}
}

// TestCheckRejectsARootThatIsNotACommand: everything a run records hangs
// from the command that ran it, so a second kind of root (an interpreted
// pipeline's span, say) fails Check; the same span under a command passes.
func TestCheckRejectsARootThatIsNotACommand(t *testing.T) {
	const root = `{"type":"span","id":1,"name":"interpret:pipeline","start_us":1,"dur_us":1}` + "\n"
	d, err := Read(strings.NewReader(root))
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Check(); len(bad) != 1 || !strings.Contains(bad[0], "span 1 (interpret:pipeline) is a root") {
		t.Fatalf("Check = %q, want one failure naming the root", bad)
	}
	const nested = `{"type":"span","id":1,"parent":2,"name":"interpret:pipeline","start_us":1,"dur_us":1}` + "\n" +
		`{"type":"span","id":2,"name":"command","start_us":1,"dur_us":2}` + "\n"
	if d, _ = Read(strings.NewReader(nested)); len(d.Check()) != 0 {
		t.Fatalf("the span under a command still fails Check: %q", d.Check())
	}
}

// TestCheckWantsEveryPipelineSettled: a pipeline span carries how its
// interposition settled and why; one without an outcome or a reason fails
// Check, naming the span and the missing attribute.
func TestCheckWantsEveryPipelineSettled(t *testing.T) {
	const cmd = `{"type":"span","id":1,"name":"command","start_us":1,"dur_us":9}` + "\n"
	for _, tc := range []struct {
		attrs, want string
	}{
		{`{"outcome":"sequential-df","reason":"keep sequential"}`, ""},
		{`{"reason":"keep sequential"}`, "span 2 (pipeline) has no outcome"},
		{`{"outcome":"parallel-df","reason":""}`, "span 2 (pipeline) has no reason"},
	} {
		pipeline := `{"type":"span","id":2,"parent":1,"name":"pipeline","start_us":2,"dur_us":1,"attrs":` + tc.attrs + "}\n"
		d, err := Read(strings.NewReader(pipeline + cmd))
		if err != nil {
			t.Fatal(err)
		}
		bad := d.Check()
		if tc.want == "" && len(bad) != 0 || tc.want != "" && (len(bad) != 1 || bad[0] != tc.want) {
			t.Errorf("attrs %s: Check = %q, want %q", tc.attrs, bad, tc.want)
		}
	}
}

func TestChromeExportShape(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Clock: stepClock()})
	root := tr.Start(nil, "pipeline")
	child := root.Child("execute")
	child.EventStr("fallback", "kind", "pristine")
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := d.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"ph":"i"`, `"pid":1`, `"fallback"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %s:\n%s", want, out)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := Read(strings.NewReader(`{"type":"span","id":0,"name":""}` + "\n")); err == nil {
		t.Fatal("span without id/name accepted")
	}
	// Other record types skip cleanly, among them the metric lines older
	// builds appended.
	d, err := Read(strings.NewReader(`{"type":"future-thing","x":1}` + "\n" +
		`{"type":"metric","metric":"counter","name":"plans_total","value":1}` + "\n"))
	if err != nil || len(d.Spans) != 0 {
		t.Fatalf("unknown type: %v", err)
	}
}
