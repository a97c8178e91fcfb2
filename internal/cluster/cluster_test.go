package cluster

import (
	"bytes"
	"strings"
	"testing"

	"jash/internal/cost"
	"jash/internal/workload"
)

func testCluster(workers int) *Cluster {
	return New(workers, cost.Laptop, Link{BandwidthBPS: 100 << 20, LatencyS: 0.001})
}

// wordJob spreads word files across the workers and counts unique words.
func wordJob(c *Cluster, t *testing.T, stages [][]string) Job {
	t.Helper()
	docs := workload.Documents(11, 4, 20_000)
	job := Job{Stages: stages}
	nodes := []string{"node1", "node2", "node3", "node4"}
	for i, doc := range docs {
		path := "/data/doc.txt"
		if err := c.Place(nodes[i], path, doc); err != nil {
			t.Fatal(err)
		}
		job.Inputs = append(job.Inputs, Input{Node: nodes[i], Path: path})
	}
	return job
}

var sortWordsStages = [][]string{
	{"tr", "A-Z", "a-z"},
	{"tr", "-cs", "A-Za-z", `\n`},
	{"sort", "-u"},
}

func TestCentralAndPlacementEquivalent(t *testing.T) {
	c := testCluster(4)
	job := wordJob(c, t, sortWordsStages)
	central, err := c.RunCentral(job)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCluster(4)
	job2 := wordJob(c2, t, sortWordsStages)
	placement, err := c2.RunPlacement(job2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(central.Output, placement.Output) {
		t.Fatalf("outputs diverge:\ncentral   %.150q\nplacement %.150q", central.Output, placement.Output)
	}
	if len(central.Output) == 0 {
		t.Fatal("empty output")
	}
}

func TestPlacementMovesFewerBytes(t *testing.T) {
	c := testCluster(4)
	job := wordJob(c, t, sortWordsStages)
	central, err := c.RunCentral(job)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCluster(4)
	job2 := wordJob(c2, t, sortWordsStages)
	placement, err := c2.RunPlacement(job2)
	if err != nil {
		t.Fatal(err)
	}
	if placement.BytesMoved >= central.BytesMoved {
		t.Errorf("placement moved %d bytes, central %d — placement should move less",
			placement.BytesMoved, central.BytesMoved)
	}
	if placement.BytesMoved == 0 {
		t.Error("placement moved nothing; partials should still ship")
	}
}

func TestPlacementFasterOnSlowNetwork(t *testing.T) {
	slow := Link{BandwidthBPS: 1 << 20, LatencyS: 0.01} // 1 MB/s WAN
	c := New(4, cost.Laptop, slow)
	job := wordJob(c, t, sortWordsStages)
	central, err := c.RunCentral(job)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(4, cost.Laptop, slow)
	job2 := wordJob(c2, t, sortWordsStages)
	placement, err := c2.RunPlacement(job2)
	if err != nil {
		t.Fatal(err)
	}
	if placement.TotalSecs >= central.TotalSecs {
		t.Errorf("placement %.3fs should beat central %.3fs on a slow network",
			placement.TotalSecs, central.TotalSecs)
	}
}

func TestDistributedSpell(t *testing.T) {
	// The paper's spell pipeline with the dictionary at the coordinator:
	// the suffix (comm) must run centrally against the merged stream.
	c := testCluster(2)
	dict := workload.Dictionary(400)
	if err := c.Place("coord", "/usr/dict", dict); err != nil {
		t.Fatal(err)
	}
	c.Place("node1", "/d1", []byte("the shell zzzmisspelled pipeline\n"))
	c.Place("node2", "/d2", []byte("data qqqtypo line\n"))
	job := Job{
		Stages: [][]string{
			{"tr", "A-Z", "a-z"},
			{"tr", "-cs", "A-Za-z", `\n`},
			{"sort", "-u"},
			{"comm", "-13", "/usr/dict", "-"},
		},
		Inputs: []Input{{"node1", "/d1"}, {"node2", "/d2"}},
	}
	rep, err := c.RunPlacement(job)
	if err != nil {
		t.Fatal(err)
	}
	out := string(rep.Output)
	for _, want := range []string{"qqqtypo", "zzzmisspelled"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing misspelling %q in %q", want, out)
		}
	}
	for _, known := range []string{"shell\n", "pipeline\n", "data\n", "line\n", "the\n"} {
		if strings.Contains(out, known) {
			t.Errorf("dictionary word leaked: %q in %q", known, out)
		}
	}
}

// TestArgvSuffixPatternNamedLikeAFile: a central suffix stage whose
// pattern operand equals one of its file operands. Inputs are stripped by
// argv position, so the pattern stays and both "-" (the merged stream)
// and the coordinator's file are read, in operand order.
func TestArgvSuffixPatternNamedLikeAFile(t *testing.T) {
	run := func(placement bool) string {
		c := testCluster(2)
		c.Place("coord", "/shell", []byte("a shell of its own\nnot this line\n"))
		c.Place("node1", "/d1", []byte("the shell\npipeline\n"))
		c.Place("node2", "/d2", []byte("a seashell\ndata\n"))
		job := Job{
			Stages: [][]string{{"tr", "A-Z", "a-z"}, {"grep", "shell", "-", "shell"}},
			Inputs: []Input{{"node1", "/d1"}, {"node2", "/d2"}},
		}
		rep, err := c.RunCentral(job)
		if placement {
			rep, err = c.RunPlacement(job)
		}
		if err != nil {
			t.Fatal(err)
		}
		return string(rep.Output)
	}
	const want = "the shell\na seashell\na shell of its own\n"
	if got := run(true); got != want {
		t.Errorf("placement output %q, want %q", got, want)
	}
	if got := run(false); got != want {
		t.Errorf("central output %q, want %q", got, want)
	}
}

func TestDegenerateJobFallsBackToCentral(t *testing.T) {
	c := testCluster(2)
	c.Place("node1", "/f", []byte("3\n1\n2\n"))
	// head is Blocking: no distributable prefix.
	job := Job{
		Stages: [][]string{{"head", "-n2"}},
		Inputs: []Input{{"node1", "/f"}},
	}
	rep, err := c.RunPlacement(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "placement(degenerate)" {
		t.Errorf("strategy = %s", rep.Strategy)
	}
	if string(rep.Output) != "3\n1\n" {
		t.Errorf("out=%q", rep.Output)
	}
}

func TestPerNodeAccounting(t *testing.T) {
	c := testCluster(2)
	c.Place("node1", "/a", []byte(strings.Repeat("x y z\n", 100)))
	c.Place("node2", "/b", []byte(strings.Repeat("p q\n", 50)))
	job := Job{
		Stages: sortWordsStages,
		Inputs: []Input{{"node1", "/a"}, {"node2", "/b"}},
	}
	rep, err := c.RunPlacement(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerNode["node1"] != 600 || rep.PerNode["node2"] != 200 {
		t.Errorf("per-node bytes = %+v", rep.PerNode)
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	c := testCluster(1)
	if err := c.Place("ghost", "/f", nil); err == nil {
		t.Error("placing on unknown node should fail")
	}
	job := Job{Stages: sortWordsStages, Inputs: []Input{{"ghost", "/f"}}}
	for name, run := range map[string]func(Job) (Report, error){
		"RunCentral": c.RunCentral, "RunPlacement": c.RunPlacement,
	} {
		if _, err := run(job); err == nil || !strings.Contains(err.Error(), `unknown node "ghost"`) {
			t.Errorf("%s over an unknown node: err = %v, want unknown node \"ghost\"", name, err)
		}
	}
}
