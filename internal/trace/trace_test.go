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
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start(nil, "plan")
		sp.SetStr("k", "v").SetInt("n", 1).SetFloat("f", 2.5).SetBool("b", true)
		sp.Event("ev")
		sp.EventInt("ev2", "n", 3)
		ch := sp.Child("child")
		ch.SetInt("bytes", 9)
		ch.End()
		sp.End()
		tr.Metrics().Counter(MetricFallbacks).Add(1)
		tr.Metrics().Histogram(MetricNodeWall).Observe(time.Millisecond)
		_ = sp.ID()
		_ = sp.Tracer()
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
	tr.Metrics().Counter(MetricPlansTotal).Add(1)
	tr.Metrics().Histogram(MetricDispatchLatency).Observe(150 * time.Microsecond)
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
	var sawCounter, sawHisto bool
	for _, m := range d.Metrics {
		switch {
		case m.Metric == "counter" && m.Name == MetricPlansTotal && m.Value == 1:
			sawCounter = true
		case m.Metric == "histogram" && m.Name == MetricDispatchLatency && m.Count == 1:
			sawHisto = true
		}
	}
	if !sawCounter || !sawHisto {
		t.Fatalf("metrics missing: %+v", d.Metrics)
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
	leaked := tr.Start(nil, "pipeline")
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

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if h.Count() != 105 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 64 || p50 > 256 {
		t.Fatalf("p50 = %dus, want within the 100us bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 32_768 || p99 > 131_072 {
		t.Fatalf("p99 = %dus, want within the 50ms bucket", p99)
	}
}

func TestChromeExportShape(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Clock: stepClock()})
	root := tr.Start(nil, "pipeline")
	child := root.Child("execute")
	child.Event("fallback")
	child.End()
	root.End()
	tr.Metrics().Counter(MetricFallbacks).Add(1)
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
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"ph":"i"`, `"ph":"C"`, `"pid":1`, `"fallback"`} {
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
	// Unknown record types skip cleanly.
	d, err := Read(strings.NewReader(`{"type":"future-thing","x":1}` + "\n"))
	if err != nil || len(d.Spans) != 0 {
		t.Fatalf("unknown type: %v", err)
	}
}
