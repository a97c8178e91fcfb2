package core

import (
	"fmt"
	"sync"
	"testing"

	"jash/internal/cost"
	"jash/internal/interp"
	"jash/internal/syntax"
	"jash/internal/vfs"
)

// offerLoop runs 1,000 iterations of statements the region former refuses
// by shape, next to one it refuses for a runtime reason until its input
// appears: /f991 … /f1000 exist, the other /f$i do not.
const offerLoop = `classify() {
	case "$1" in
	/a*) k=a ;;
	*) k=b ;;
	esac
}
i=0
while [ "$i" -lt 1000 ]; do
	i=$((i+1))
	q=/a$i
	classify "$q"
	echo "$k"
	cat /f$i | wc -l
done
`

func offerFS() *vfs.FS {
	fs := vfs.New()
	for i := 991; i <= 1000; i++ {
		fs.WriteFile(fmt.Sprintf("/f%d", i), []byte("x\ny\n"))
	}
	return fs
}

// canon is a statement as the offer counter keys it.
func canon(t *testing.T, src string) string {
	t.Helper()
	script, err := syntax.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return syntax.PrintStmts(script.Stmts)
}

// TestShapeRefusalIsOfferedOnce: a statement the region former refuses by
// shape is offered once, however often it runs; one it refuses for a
// runtime reason is offered on every run, and is optimized from the run on
// which it becomes a region.
func TestShapeRefusalIsOfferedOnce(t *testing.T) {
	s, out, _ := newShell(offerFS(), cost.Laptop(), ModeJash)
	var mu sync.Mutex
	offers := map[string]int{}
	s.Interp.Observer = func(in *interp.Interp, st *syntax.Stmt) (int, bool) {
		mu.Lock()
		offers[syntax.PrintStmts([]*syntax.Stmt{st})]++
		mu.Unlock()
		return s.observe(in, st)
	}
	if _, err := s.Run(offerLoop); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{`i=$((i+1))`, `[ "$i" -lt 1000 ]`, `q=/a$i`, `classify "$q"`, `echo "$k"`, `k=a`} {
		if n := offers[canon(t, src)]; n != 1 {
			t.Errorf("%s offered %d times, want once", src, n)
		}
	}
	if n := offers[canon(t, `cat /f$i | wc -l`)]; n != 1000 {
		t.Errorf("cat /f$i | wc -l offered %d times, want on each of the 1000 iterations", n)
	}
	if s.Stats.Optimized != 10 {
		t.Errorf("optimized %d pipelines, want the 10 whose input exists", s.Stats.Optimized)
	}
	// Every offer is counted once, as a region or as a declined offer.
	total := 0
	for _, n := range offers {
		total += n
	}
	if got := s.Stats.Optimized + s.Stats.Interpreted; got != total {
		t.Errorf("optimized+interpreted = %d, want the %d offers made", got, total)
	}

	bash, bashOut, _ := newShell(offerFS(), cost.Laptop(), ModeBash)
	if _, err := bash.Run(offerLoop); err != nil {
		t.Fatal(err)
	}
	if out.String() != bashOut.String() {
		t.Errorf("jash and bash modes differ on the offer loop")
	}
}
