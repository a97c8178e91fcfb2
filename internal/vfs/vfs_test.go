package vfs

import (
	"errors"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"jash/internal/pipe"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/b/c.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("data = %q", data)
	}
	info, err := fs.Stat("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 5 || info.IsDir {
		t.Errorf("info = %+v", info)
	}
}

func TestDevNullDiscards(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/dev/null", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/dev/null", []byte("b")); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func(string) (io.WriteCloser, error){fs.Create, fs.Append} {
		w, _ := open("/dev/null")
		if n, err := w.Write([]byte("cd")); n != 2 || err != nil {
			t.Fatalf("write: %d %v", n, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := fs.ReadFile("/dev/null")
	if fi, _ := fs.Stat("/dev/null"); err != nil || len(data) != 0 || fi.Size != 0 || fi.IsDir {
		t.Fatalf("/dev/null holds %q (stat %+v, err %v)", data, fi, err)
	}
	if fs.TotalBytes() != 0 {
		t.Fatalf("a new filesystem holds %d bytes", fs.TotalBytes())
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/nope")
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v", err)
	}
}

func TestAppendFile(t *testing.T) {
	fs := New()
	if err := fs.AppendFile("/log", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/log", []byte("b")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/log")
	if string(data) != "ab" {
		t.Errorf("data = %q", data)
	}
}

func TestCreateWriter(t *testing.T) {
	fs := New()
	w, err := fs.Create("/out")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "part one ")
	io.WriteString(w, "part two")
	if fs.Exists("/out") {
		t.Error("file should not exist before Close")
	}
	w.Close()
	data, _ := fs.ReadFile("/out")
	if string(data) != "part one part two" {
		t.Errorf("data = %q", data)
	}
}

func TestModSeqAdvances(t *testing.T) {
	fs := New()
	fs.WriteFile("/f", []byte("1"))
	i1, _ := fs.Stat("/f")
	fs.WriteFile("/f", []byte("2"))
	i2, _ := fs.Stat("/f")
	if i2.ModSeq <= i1.ModSeq {
		t.Errorf("ModSeq did not advance: %d -> %d", i1.ModSeq, i2.ModSeq)
	}
}

func TestMkdirErrors(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate mkdir err = %v", err)
	}
	if err := fs.Mkdir("/missing/child"); !errors.Is(err, ErrNotExist) {
		t.Errorf("mkdir under missing parent err = %v", err)
	}
	fs.WriteFile("/file", nil)
	if err := fs.MkdirAll("/file/sub"); !errors.Is(err, ErrNotDir) {
		t.Errorf("mkdirall through file err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	fs.WriteFile("/d/f", []byte("x"))
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty dir err = %v", err)
	}
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") {
		t.Error("dir still exists")
	}
	if err := fs.RemoveAll("/never-there"); err != nil {
		t.Errorf("RemoveAll of missing path = %v", err)
	}
}

func TestRename(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", []byte("data"))
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Error("old path still exists")
	}
	data, _ := fs.ReadFile("/b")
	if string(data) != "data" {
		t.Errorf("data = %q", data)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	for _, name := range []string{"/dir/c", "/dir/a", "/dir/b"} {
		fs.WriteFile(name, nil)
	}
	infos, err := fs.ReadDir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name)
	}
	if !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Errorf("names = %v", names)
	}
}

func TestDeviceMounts(t *testing.T) {
	fs := New()
	fs.Mount("/fast", "gp3")
	fs.Mount("/fast/slow-corner", "gp2")
	cases := map[string]string{
		"/anywhere":            "default",
		"/fast/data.txt":       "gp3",
		"/fast/slow-corner/f":  "gp2",
		"/fastnot/related.txt": "default",
	}
	for p, want := range cases {
		if got := fs.DeviceFor(p); got != want {
			t.Errorf("DeviceFor(%q) = %q, want %q", p, got, want)
		}
	}
	fs.WriteFile("/fast/data.txt", []byte("xyz"))
	fi, _ := fs.Stat("/fast/data.txt")
	if fi.Device != "gp3" {
		t.Errorf("Stat device = %q", fi.Device)
	}
}

func TestGlob(t *testing.T) {
	fs := New()
	for _, p := range []string{"/w/a.txt", "/w/b.txt", "/w/c.log", "/w/.hidden", "/w/sub/d.txt"} {
		fs.WriteFile(p, nil)
	}
	got := fs.Glob("/w", "*.txt")
	want := []string{"a.txt", "b.txt"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Glob(*.txt) = %v", got)
	}
	got = fs.Glob("/", "/w/*/*.txt")
	if len(got) != 1 || got[0] != "/w/sub/d.txt" {
		t.Errorf("Glob(/w/*/*.txt) = %v", got)
	}
	got = fs.Glob("/", "w/*.log")
	if len(got) != 1 || got[0] != "w/c.log" {
		t.Errorf("Glob(w/*.log) = %v", got)
	}
	if got := fs.Glob("/w", "*"); len(got) != 4 {
		t.Errorf("Glob(*) should skip dotfiles, got %v", got)
	}
	if got := fs.Glob("/w", ".h*"); len(got) != 1 {
		t.Errorf("Glob(.h*) = %v", got)
	}
	if got := fs.Glob("/w", "*.pdf"); len(got) != 0 {
		t.Errorf("Glob(*.pdf) = %v", got)
	}
	// A name under a file names nothing: only sub leads back through ..,
	// and the list grows with the directories, not the files. Each match
	// is named as the pattern spells it, as dash names it.
	if got := fs.Glob("/w", "*/../*.log"); strings.Join(got, ",") != "sub/../c.log" {
		t.Errorf("Glob(*/../*.log) = %v", got)
	}
	if got := fs.Glob("/", "/w/a.txt/../*.log"); len(got) != 0 {
		t.Errorf("Glob(/w/a.txt/../*.log) = %v", got)
	}
	if got := fs.Glob("/w", strings.Repeat("*/../", 12)+"*.log"); strings.Join(got, ",") != strings.Repeat("sub/../", 12)+"c.log" {
		t.Errorf("Glob((*/../)^12 *.log) = %v", got)
	}
	for _, c := range []struct{ dir, pat, want string }{
		{"/w", "./*.log", "./c.log"},
		{"/w", "*/..", "sub/.."},
		{"/w", "*/", "sub/"},
		{"/", "/w/./*.log", "/w/./c.log"},
		{"/", "/w//*.log", "/w//c.log"},
		{"/", "/w/sub/../*.log", "/w/sub/../c.log"},
	} {
		if got := fs.Glob(c.dir, c.pat); strings.Join(got, ",") != c.want {
			t.Errorf("Glob(%q) in %s = %v, want %s", c.pat, c.dir, got, c.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "/f" + string(rune('a'+i))
			for j := 0; j < 100; j++ {
				fs.WriteFile(name, []byte("data"))
				fs.ReadFile(name)
				fs.Stat(name)
				fs.ReadDir("/")
			}
		}(i)
	}
	wg.Wait()
	if n := fs.TotalBytes(); n != 8*4 {
		t.Errorf("TotalBytes = %d", n)
	}
}

// Property: write-then-read returns exactly what was written.
func TestQuickWriteRead(t *testing.T) {
	fs := New()
	f := func(data []byte) bool {
		if err := fs.WriteFile("/q", data); err != nil {
			return false
		}
		got, err := fs.ReadFile("/q")
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRenameIntoItself(t *testing.T) {
	fs := New()
	fs.WriteFile("/d/f", []byte("x"))
	for _, dst := range []string{"/d/sub", "/d/d", "/d/./sub/"} {
		err := fs.Rename("/d", dst)
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("Rename(/d, %s) err = %v, want ErrInvalid", dst, err)
		}
	}
	if data, err := fs.ReadFile("/d/f"); err != nil || string(data) != "x" {
		t.Errorf("/d/f after refused renames: %q, %v", data, err)
	}
	// A sibling whose name extends the source's is not inside it.
	if err := fs.Rename("/d", "/dd"); err != nil {
		t.Errorf("Rename(/d, /dd) = %v", err)
	}
}

func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A reader sees the file as it was at Open, whatever is written after.
func TestOpenIsASnapshot(t *testing.T) {
	big := strings.Repeat("0123456789abcde\n", 3*pipe.BlockSize/16+5)
	writes := map[string]func(fs *FS){
		"Create+Close": func(fs *FS) {
			w, _ := fs.Create("/f")
			io.WriteString(w, "new")
			w.Close()
		},
		"WriteFile":  func(fs *FS) { fs.WriteFile("/f", []byte("new")) },
		"AppendFile": func(fs *FS) { fs.AppendFile("/f", []byte("more")) },
		"Append+Close": func(fs *FS) {
			w, _ := fs.Append("/f")
			io.WriteString(w, strings.Repeat("m", pipe.BlockSize))
			w.Close()
		},
	}
	for name, write := range writes {
		for _, old := range []string{"", "small\n", big} {
			fs := New()
			fs.WriteFile("/f", []byte(old))
			r, err := fs.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			write(fs)
			if got := readAll(t, r); got != old {
				t.Errorf("%s over %d bytes: reader saw %d bytes, want the old contents", name, len(old), len(got))
			}
		}
	}
}

// Write copies p: a pipe recycles its chunk as soon as Write returns.
func TestWriteKeepsNothingOfP(t *testing.T) {
	for _, mode := range []string{"create", "append"} {
		fs := New()
		fs.WriteFile("/f", []byte("head\n"))
		var w io.WriteCloser
		if mode == "create" {
			w, _ = fs.Create("/f")
		} else {
			w, _ = fs.Append("/f")
		}
		p := make([]byte, 0, pipe.BlockSize)
		var want []byte
		if mode == "append" {
			want = []byte("head\n")
		}
		for i := 0; i < 5; i++ {
			p = append(p[:0], strings.Repeat(string(rune('a'+i)), 3000+i*20000)...)
			w.Write(p)
			want = append(want, p...)
			for j := range p {
				p[j] = 0xFF
			}
		}
		w.Close()
		got, _ := fs.ReadFile("/f")
		if string(got) != string(want) {
			t.Errorf("%s: the file changed with the caller's buffer", mode)
		}
	}
}

// Repeated small appends grow the last block instead of adding blocks.
func TestSmallAppendsStayFewBlocks(t *testing.T) {
	fs := New()
	line := []byte("one short line of text\n")
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			fs.AppendFile("/log", line)
		} else {
			w, _ := fs.Append("/log")
			w.Write(line)
			w.Close()
		}
	}
	fs.mu.RLock()
	n, _ := fs.lookup("/log")
	blocks, size := len(n.blocks), n.size
	fs.mu.RUnlock()
	if size != int64(10000*len(line)) {
		t.Fatalf("size = %d", size)
	}
	if limit := int(size/pipe.BlockSize) + 1; blocks > limit {
		t.Errorf("%d blocks for %d bytes, want at most %d", blocks, size, limit)
	}
}

// Reading a file through Open costs a constant number of allocations,
// however large the file.
func TestOpenCopyAllocsConstant(t *testing.T) {
	fs := New()
	fs.WriteFile("/small", []byte("x\n"))
	fs.WriteFile("/big", make([]byte, 32<<20))
	allocs := func(p string) float64 {
		return testing.AllocsPerRun(5, func() {
			r, err := fs.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, r)
			r.Close()
		})
	}
	small, big := allocs("/small"), allocs("/big")
	if big != small || big > 2 {
		t.Errorf("Open+io.Copy allocs: %v for 2 bytes, %v for 32 MiB", small, big)
	}
}

// Readers run against writers, appenders and renames; run with -race.
func TestSnapshotHammer(t *testing.T) {
	fs := New()
	chunk := []byte(strings.Repeat("x", 1000) + "\n")
	fs.WriteFile("/f", chunk)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/f", "/g"} {
					r, err := fs.Open(p)
					if err != nil {
						continue
					}
					data, _ := io.ReadAll(r)
					if len(data)%len(chunk) != 0 || strings.Trim(string(data), "x\n") != "" {
						t.Errorf("torn read of %s: %d bytes", p, len(data))
					}
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		switch i % 4 {
		case 0:
			fs.AppendFile("/f", chunk)
		case 1:
			w, _ := fs.Append("/f")
			for j := 0; j < 70; j++ {
				w.Write(chunk)
			}
			w.Close()
		case 2:
			fs.Rename("/f", "/g")
			fs.Rename("/g", "/f")
		case 3:
			if i%40 == 3 {
				fs.WriteFile("/f", chunk)
			}
		}
	}
	close(stop)
	wg.Wait()
}
