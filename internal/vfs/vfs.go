// Package vfs provides a hermetic, thread-safe, in-memory filesystem used
// as the substrate for the shell interpreter, the coreutils, and the JIT's
// runtime probing. Every file carries metadata the optimizer cares about —
// size, modification stamp, and the storage device it lives on — so tests
// and benchmarks are fully deterministic and never touch the host OS.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"

	"jash/internal/pattern"
	"jash/internal/pipe"
)

// Common error values, mirroring the os package shapes scripts expect.
var (
	ErrNotExist = errors.New("no such file or directory")
	ErrExist    = errors.New("file exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrNotEmpty = errors.New("directory not empty")
	ErrInvalid  = errors.New("invalid argument")
)

// PathError decorates an error with the operation and path, like os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }

func (e *PathError) Unwrap() error { return e.Err }

// FileInfo describes a file or directory.
type FileInfo struct {
	Name   string
	Size   int64
	IsDir  bool
	Mode   uint32 // permission bits, set at creation from the umask
	ModSeq int64  // monotonically increasing modification stamp
	Device string // storage device the file resides on
}

// FS is the in-memory filesystem. The zero value is not usable; call New.
type FS struct {
	mu     sync.RWMutex
	root   *node
	seq    int64
	umask  uint32  // file-mode creation mask (umask builtin)
	mounts []mount // longest-prefix device bindings
}

type mount struct {
	prefix string
	device string
}

// node is a file or directory. A file's contents are a list of blocks of
// at most pipe.BlockSize bytes. The bytes a published list covers are
// never written again, so a reader shares the list instead of copying it
// (see snapshot); a write builds a new list or extends the last block past
// every byte already published (see appendBlocks). Two files never share
// a block, since an append to either would fill the same spare capacity.
type node struct {
	name     string
	isDir    bool
	blocks   [][]byte
	size     int64
	children map[string]*node
	mode     uint32
	modSeq   int64
	// discard marks the null device: writes to it are dropped, so it
	// stays empty and a read of it is at end of file.
	discard bool
}

// snapshot returns the file's current contents without copying a byte:
// the blocks before the last, whose slice headers are never written
// again, and a clipped copy of the last block's header, which an append
// may extend in place. Caller holds the lock.
func (n *node) snapshot() (head [][]byte, tail []byte) {
	k := len(n.blocks)
	if k == 0 {
		return nil, nil
	}
	last := n.blocks[k-1]
	return n.blocks[: k-1 : k-1], last[:len(last):len(last)]
}

// appendBlocks copies p onto the end of bs under the one growth rule of
// every write: the last block fills up to its capacity; a last block
// smaller than pipe.BlockSize grows by doubling up to pipe.BlockSize;
// after that a new pipe.BlockSize block starts. The first block of a list
// is sized to fit p, so a small file costs its own size. Growing a block
// copies it into a new array and filling one writes only past its length,
// so the bytes any snapshot covers stay as they were.
func appendBlocks(bs [][]byte, p []byte) [][]byte {
	for len(p) > 0 {
		if k := len(bs); k > 0 {
			last := bs[k-1]
			if room := cap(last) - len(last); room > 0 {
				room = min(room, len(p))
				bs[k-1] = append(last, p[:room]...)
				p = p[room:]
				continue
			}
			if cap(last) < pipe.BlockSize {
				grown := make([]byte, len(last), min(max(2*cap(last), len(last)+len(p)), pipe.BlockSize))
				copy(grown, last)
				bs[k-1] = grown
				continue
			}
		}
		size := pipe.BlockSize
		if len(bs) == 0 {
			size = min(len(p), pipe.BlockSize)
		}
		bs = append(bs, make([]byte, 0, size))
	}
	return bs
}

// New returns a filesystem holding only the root directory and the null
// device /dev/null, bound to device "default", with the conventional 022
// creation mask.
func New() *FS {
	null := &node{name: "null", mode: 0o666, discard: true}
	dev := &node{name: "dev", isDir: true, children: map[string]*node{"null": null}, mode: 0o755}
	return &FS{
		root:   &node{name: "/", isDir: true, children: map[string]*node{"dev": dev}, mode: 0o755},
		umask:  0o022,
		mounts: []mount{{prefix: "/", device: "default"}},
	}
}

// Umask returns the current file-mode creation mask.
func (fs *FS) Umask() uint32 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.umask
}

// SetUmask installs a new creation mask (only the permission bits count)
// and returns the previous one, like umask(2). It affects files and
// directories created afterwards; existing modes are untouched.
func (fs *FS) SetUmask(mask uint32) uint32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	old := fs.umask
	fs.umask = mask & 0o777
	return old
}

// fileModeLocked computes a new file's permission bits (0666 &^ umask).
func (fs *FS) fileModeLocked() uint32 { return 0o666 &^ fs.umask }

// dirModeLocked computes a new directory's permission bits (0777 &^ umask).
func (fs *FS) dirModeLocked() uint32 { return 0o777 &^ fs.umask }

// Mount binds the subtree at prefix to the named storage device. Longest
// prefix wins on lookup. The prefix must be absolute.
func (fs *FS) Mount(prefix, device string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix = clean(prefix)
	for i, m := range fs.mounts {
		if m.prefix == prefix {
			fs.mounts[i].device = device
			return
		}
	}
	fs.mounts = append(fs.mounts, mount{prefix: prefix, device: device})
	sort.Slice(fs.mounts, func(i, j int) bool {
		return len(fs.mounts[i].prefix) > len(fs.mounts[j].prefix)
	})
}

// DeviceFor returns the device name holding the given path.
func (fs *FS) DeviceFor(p string) string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p = clean(p)
	for _, m := range fs.mounts {
		if m.prefix == "/" || p == m.prefix || strings.HasPrefix(p, m.prefix+"/") {
			return m.device
		}
	}
	return "default"
}

func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup walks to the node for path p, a component at a time (splitting
// the path would allocate). Caller holds the lock.
func (fs *FS) lookup(p string) (*node, error) {
	cur := fs.root
	for rest := clean(p)[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if !cur.isDir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// lookupParent returns the parent directory node and the final component.
func (fs *FS) lookupParent(p string) (*node, string, error) {
	p = clean(p)
	if p == "/" {
		return nil, "", ErrExist
	}
	i := strings.LastIndexByte(p, '/')
	cur := fs.root
	for rest := p[1 : i+1]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		next, ok := cur.children[part]
		if !ok {
			return nil, "", ErrNotExist
		}
		if !next.isDir {
			return nil, "", ErrNotDir
		}
		cur = next
	}
	return cur, p[i+1:], nil
}

// Stat returns metadata for the path.
func (fs *FS) Stat(p string) (FileInfo, error) {
	fs.mu.RLock()
	n, err := fs.lookup(p)
	fs.mu.RUnlock()
	if err != nil {
		return FileInfo{}, &PathError{"stat", p, err}
	}
	return FileInfo{
		Name:   path.Base(clean(p)),
		Size:   n.size,
		IsDir:  n.isDir,
		Mode:   n.mode,
		ModSeq: n.modSeq,
		Device: fs.DeviceFor(p),
	}, nil
}

// Exists reports whether the path exists.
func (fs *FS) Exists(p string) bool {
	_, err := fs.Stat(p)
	return err == nil
}

// fileLocked returns the file node at p for writing, creating it and any
// missing parent directories, and stamps it with the next ModSeq. Caller
// holds the write lock.
func (fs *FS) fileLocked(p string) (*node, error) {
	if err := fs.mkdirAllLocked(path.Dir(clean(p))); err != nil {
		return nil, err
	}
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return nil, &PathError{"create", p, err}
	}
	fs.seq++
	n, ok := parent.children[name]
	if !ok {
		// The umask applies at creation only; overwrites keep the mode.
		n = &node{name: name, mode: fs.fileModeLocked()}
		parent.children[name] = n
	}
	if n.isDir {
		return nil, &PathError{"write", p, ErrIsDir}
	}
	n.modSeq = fs.seq
	return n, nil
}

// ReadFile returns a flat copy of the file's contents, for callers that
// want one slice (tests, cp, small files); streams use Open.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	r, err := fs.open(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, r.size)
	for r.next() {
		out = append(out, r.cur...)
	}
	return out, nil
}

// Open returns a reader over a snapshot of the file's contents. It copies
// nothing: the reader shares the file's blocks, and a later write to the
// file leaves what the reader sees unchanged.
func (fs *FS) Open(p string) (io.ReadCloser, error) {
	return fs.open(p)
}

func (fs *FS) open(p string) (*fileReader, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, &PathError{"open", p, err}
	}
	if n.isDir {
		return nil, &PathError{"read", p, ErrIsDir}
	}
	head, tail := n.snapshot()
	return &fileReader{head: head, tail: tail, size: n.size}, nil
}

// fileReader reads one snapshot of a file, block by block.
type fileReader struct {
	head [][]byte // blocks not yet started, before the last
	tail []byte   // the last block, until it is started
	cur  []byte   // unread rest of the current block
	size int64
}

// next makes the following block current; false at the end of the file.
func (r *fileReader) next() bool {
	switch {
	case len(r.head) > 0:
		r.cur, r.head = r.head[0], r.head[1:]
	case r.tail != nil:
		r.cur, r.tail = r.tail, nil
	default:
		return false
	}
	return true
}

func (r *fileReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) && (len(r.cur) > 0 || r.next()) {
		k := copy(p[n:], r.cur)
		r.cur = r.cur[k:]
		n += k
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// WriteTo hands w the file one block per Write, with no copy of its own.
func (r *fileReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for len(r.cur) > 0 || r.next() {
		k, err := w.Write(r.cur)
		r.cur = r.cur[k:]
		total += int64(k)
		if err == nil && len(r.cur) > 0 {
			err = io.ErrShortWrite
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close is a no-op: a snapshot holds no lock, only blocks the GC frees.
func (r *fileReader) Close() error { return nil }

// WriteFile creates or truncates the file with a copy of data, creating
// parent directories as needed.
func (fs *FS) WriteFile(p string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.fileLocked(p)
	if err != nil || n.discard {
		return err
	}
	n.blocks, n.size = appendBlocks(nil, data), int64(len(data))
	return nil
}

// AppendFile appends a copy of data to the file, creating it if needed.
// With no data it only advances the file's ModSeq.
func (fs *FS) AppendFile(p string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.fileLocked(p)
	if err != nil || n.discard {
		return err
	}
	n.blocks, n.size = appendBlocks(n.blocks, data), n.size+int64(len(data))
	return nil
}

// Create returns a writer whose contents replace the file when Close is
// called: until then the file is untouched, so a writer that is never
// closed leaves no trace.
func (fs *FS) Create(p string) (io.WriteCloser, error) {
	return &fileWriter{fs: fs, path: p, discard: fs.isDiscard(p)}, nil
}

// Append returns a writer whose contents are appended to the file when
// Close is called.
func (fs *FS) Append(p string) (io.WriteCloser, error) {
	return &fileWriter{fs: fs, path: p, appendTo: true, discard: fs.isDiscard(p)}, nil
}

// isDiscard reports whether p names the null device.
func (fs *FS) isDiscard(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	return err == nil && n.discard
}

// fileWriter collects a file's new contents in blocks of its own. Write
// copies p (a pipe recycles its chunk as soon as Write returns); Close
// swaps the blocks in, or in append mode copies them onto the file's. A
// writer opened on the null device keeps nothing.
type fileWriter struct {
	fs       *FS
	path     string
	blocks   [][]byte
	size     int64
	appendTo bool
	discard  bool
	closed   bool
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("write on closed file")
	}
	if w.discard {
		return len(p), nil
	}
	w.blocks = appendBlocks(w.blocks, p)
	w.size += int64(len(p))
	return len(p), nil
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	blocks := w.blocks
	w.blocks = nil
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	n, err := w.fs.fileLocked(w.path)
	if err != nil || n.discard {
		return err
	}
	if !w.appendTo {
		n.blocks, n.size = blocks, w.size
		return nil
	}
	for _, b := range blocks {
		n.blocks = appendBlocks(n.blocks, b)
	}
	n.size += w.size
	return nil
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return &PathError{"mkdir", p, err}
	}
	if _, ok := parent.children[name]; ok {
		return &PathError{"mkdir", p, ErrExist}
	}
	fs.seq++
	parent.children[name] = &node{name: name, isDir: true, children: map[string]*node{}, mode: fs.dirModeLocked(), modSeq: fs.seq}
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mkdirAllLocked(p)
}

func (fs *FS) mkdirAllLocked(p string) error {
	cur := fs.root
	for rest := clean(p)[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		next, ok := cur.children[part]
		if !ok {
			fs.seq++
			next = &node{name: part, isDir: true, children: map[string]*node{}, mode: fs.dirModeLocked(), modSeq: fs.seq}
			cur.children[part] = next
		} else if !next.isDir {
			return &PathError{"mkdir", p, ErrNotDir}
		}
		cur = next
	}
	return nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		return &PathError{"remove", p, err}
	}
	n, ok := parent.children[name]
	if !ok {
		return &PathError{"remove", p, ErrNotExist}
	}
	if n.isDir && len(n.children) > 0 {
		return &PathError{"remove", p, ErrNotEmpty}
	}
	delete(parent.children, name)
	return nil
}

// RemoveAll deletes a file or directory tree; missing paths are not errors.
func (fs *FS) RemoveAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name, err := fs.lookupParent(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return &PathError{"removeall", p, err}
	}
	delete(parent.children, name)
	return nil
}

// Rename moves a file or directory.
func (fs *FS) Rename(oldp, newp string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op, oname, err := fs.lookupParent(oldp)
	if err != nil {
		return &PathError{"rename", oldp, err}
	}
	n, ok := op.children[oname]
	if !ok {
		return &PathError{"rename", oldp, ErrNotExist}
	}
	np, nname, err := fs.lookupParent(newp)
	if err != nil {
		return &PathError{"rename", newp, err}
	}
	if strings.HasPrefix(clean(newp), clean(oldp)+"/") {
		// Linking a directory under itself would cut it off from the root.
		return &PathError{"rename", newp, ErrInvalid}
	}
	delete(op.children, oname)
	n.name = nname
	fs.seq++
	n.modSeq = fs.seq
	np.children[nname] = n
	return nil
}

// ReadDir lists a directory's entries sorted by name.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, &PathError{"readdir", p, err}
	}
	if !n.isDir {
		return nil, &PathError{"readdir", p, ErrNotDir}
	}
	dev := fs.deviceForLocked(p)
	infos := make([]FileInfo, 0, len(n.children))
	for _, c := range n.children {
		infos = append(infos, FileInfo{
			Name:   c.name,
			Size:   c.size,
			IsDir:  c.isDir,
			Mode:   c.mode,
			ModSeq: c.modSeq,
			Device: dev,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

func (fs *FS) deviceForLocked(p string) string {
	p = clean(p)
	for _, m := range fs.mounts {
		if m.prefix == "/" || p == m.prefix || strings.HasPrefix(p, m.prefix+"/") {
			return m.device
		}
	}
	return "default"
}

// Glob expands a shell pattern against the filesystem relative to dir
// (absolute patterns ignore dir). Each match is named as the pattern
// spells it — `./f`, `s1/..`, `s1/../f` — with its metacharacter segments
// replaced by the names they matched. Results are sorted. A pattern with
// no matches returns an empty slice, per pathname expansion rules.
func (fs *FS) Glob(dir, pat string) []string {
	// A match is the path it is looked up by and the name it is given.
	type match struct{ path, name string }
	base := dir
	if strings.HasPrefix(pat, "/") {
		base = "/"
	}
	matches := []match{{path: base}}
	for i, seg := range strings.Split(pat, "/") {
		var next []match
		for _, m := range matches {
			name := m.name
			if i > 0 {
				name += "/"
			}
			if !pattern.HasMeta(seg) {
				// Only a directory has names under it, "" (a slash) and
				// f/.. included: f/.. names nothing when f is a file,
				// though path.Join would clean it to f's directory (and
				// */.. repeated would then grow the list by the number of
				// files at every step).
				lit := pattern.Unescape(seg)
				if fi, err := fs.Stat(m.path); err != nil || !fi.IsDir {
					continue
				}
				cand := path.Join(m.path, lit)
				if seg == "" || fs.Exists(cand) {
					next = append(next, match{cand, name + lit})
				}
				continue
			}
			entries, err := fs.ReadDir(m.path)
			if err != nil {
				continue
			}
			for _, e := range entries {
				// Leading dots require an explicit dot in the pattern.
				if strings.HasPrefix(e.Name, ".") && !strings.HasPrefix(seg, ".") {
					continue
				}
				if pattern.Match(seg, e.Name) {
					next = append(next, match{path.Join(m.path, e.Name), name + e.Name})
				}
			}
		}
		matches = next
	}
	out := make([]string, 0, len(matches))
	for _, m := range matches {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the sum of all file sizes, a convenience for tests
// and the bench harness.
func (fs *FS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	var walk func(n *node)
	walk = func(n *node) {
		total += n.size
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(fs.root)
	return total
}

// String renders a tree listing, for debugging.
func (fs *FS) String() string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var b strings.Builder
	var walk func(n *node, prefix string)
	walk = func(n *node, prefix string) {
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := n.children[name]
			if c.isDir {
				fmt.Fprintf(&b, "%s%s/\n", prefix, name)
				walk(c, prefix+name+"/")
			} else {
				fmt.Fprintf(&b, "%s%s (%d bytes)\n", prefix, name, c.size)
			}
		}
	}
	walk(fs.root, "/")
	return b.String()
}
