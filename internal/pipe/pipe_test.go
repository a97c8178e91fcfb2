package pipe

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// blocked reports whether the operation behind done is still parked after
// the pipe has had ample time to let it through.
func blocked(done <-chan error) bool {
	select {
	case <-done:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

func await(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("pipe operation never woke")
		return nil
	}
}

// sameBlock reports whether two slices share a backing array start.
func sameBlock(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// allocatedBy reports the bytes fn allocates (all goroutines; the tests
// using it run nothing else).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestWriterBlocksAtCapacity(t *testing.T) {
	const capacity = 1024
	r, w := New(capacity)
	payload := bytes.Repeat([]byte("x"), 4*capacity)
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(payload)
		w.Close()
		done <- err
	}()
	if !blocked(done) {
		t.Fatal("a write of 4x the capacity finished with nobody reading")
	}
	if got := r.PeakBuffered(); got != capacity {
		t.Fatalf("resident bytes with the writer parked = %d, want the capacity %d", got, capacity)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes, err=%v; want the %d written", len(got), err, len(payload))
	}
	if err := await(t, done); err != nil {
		t.Fatalf("write: %v", err)
	}
	if peak := r.PeakBuffered(); peak > capacity {
		t.Fatalf("peak residency %d exceeds the capacity %d", peak, capacity)
	}
}

func TestOwnedChunkOvershootsByAtMostItself(t *testing.T) {
	const capacity = 1024
	r, w := New(capacity)
	if _, err := w.Write(make([]byte, capacity-1)); err != nil {
		t.Fatal(err)
	}
	// One byte of room admits an owned chunk whole…
	chunk := GetBlock()[:BlockSize]
	if n, err := w.WriteOwned(chunk); n != BlockSize || err != nil {
		t.Fatalf("WriteOwned = %d, %v", n, err)
	}
	// …and the next one waits for the reader.
	done := make(chan error, 1)
	go func() {
		_, err := w.WriteOwned(GetBlock()[:BlockSize])
		done <- err
	}()
	if !blocked(done) {
		t.Fatal("a second owned chunk was admitted into a full pipe")
	}
	if peak := r.PeakBuffered(); peak != capacity-1+BlockSize {
		t.Fatalf("peak residency %d, want capacity-1 plus one chunk = %d", peak, capacity-1+BlockSize)
	}
	if _, err := io.CopyN(io.Discard, r, capacity-1+BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := await(t, done); err != nil {
		t.Fatalf("parked WriteOwned: %v", err)
	}
	if peak := r.PeakBuffered(); peak > capacity+BlockSize {
		t.Fatalf("peak residency %d exceeds capacity plus one owned chunk", peak)
	}
}

func TestEOFArrivesAfterTheDrain(t *testing.T) {
	r, w := New(BlockSize)
	w.Write([]byte("tail"))
	w.Close()
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if string(buf[:n]) != "tail" || err != nil {
		t.Fatalf("first read = %q, %v; want the buffered bytes and no error", buf[:n], err)
	}
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("read after the drain = %d, %v; want 0, EOF", n, err)
	}
	if _, err := w.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write after Close = %v, want ErrClosedPipe", err)
	}
}

func TestCloseWithErrorReachesTheReaderAfterTheDrain(t *testing.T) {
	r, w := New(BlockSize)
	boom := errors.New("boom")
	w.Write([]byte("ok"))
	w.CloseWithError(boom)
	got, err := io.ReadAll(r)
	if string(got) != "ok" || err != boom {
		t.Fatalf("ReadAll = %q, %v; want the buffered bytes then the writer's error", got, err)
	}
}

func TestReaderCloseFailsABlockedWriter(t *testing.T) {
	const capacity = 1024
	r, w := New(capacity)
	done := make(chan error, 1)
	go func() {
		_, err := w.Write(make([]byte, 4*capacity))
		done <- err
	}()
	if !blocked(done) {
		t.Fatal("writer never parked")
	}
	r.Close()
	if err := await(t, done); err != io.ErrClosedPipe {
		t.Fatalf("blocked write after the reader hung up = %v, want ErrClosedPipe", err)
	}
	if _, err := w.WriteOwned(GetBlock()[:1]); err != io.ErrClosedPipe {
		t.Fatalf("WriteOwned after the reader hung up = %v, want ErrClosedPipe", err)
	}
	if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.ErrClosedPipe {
		t.Fatalf("read on a closed read end = %d, %v", n, err)
	}
}

// A hung-up reader strands whatever is resident; those blocks must go back
// to the pool, or every `yes | head -n1` leaks one. Without recycling each
// cycle below allocates a fresh block.
func TestReaderCloseRecyclesResidentBlocks(t *testing.T) {
	const cycles = 200
	payload := make([]byte, BlockSize)
	got := allocatedBy(func() {
		for i := 0; i < cycles; i++ {
			r, w := New(BlockSize)
			w.Write(payload)
			r.Close()
		}
	})
	if limit := uint64(cycles * BlockSize / 2); got > limit {
		t.Fatalf("%d write+hangup cycles allocated %d bytes; resident blocks are not recycled (limit %d)", cycles, got, limit)
	}
}

func TestBreakWakesBothEnds(t *testing.T) {
	torn := errors.New("torn down")
	t.Run("blocked reader", func(t *testing.T) {
		r, _ := New(BlockSize)
		done := make(chan error, 1)
		go func() {
			_, err := r.Read(make([]byte, 1))
			done <- err
		}()
		if !blocked(done) {
			t.Fatal("reader never parked")
		}
		r.Break(torn)
		if err := await(t, done); err != torn {
			t.Fatalf("blocked read = %v, want the break error", err)
		}
	})
	t.Run("blocked writer", func(t *testing.T) {
		r, w := New(1024)
		done := make(chan error, 1)
		go func() {
			_, err := w.Write(make([]byte, 4096))
			done <- err
		}()
		if !blocked(done) {
			t.Fatal("writer never parked")
		}
		r.Break(torn)
		if err := await(t, done); err != torn {
			t.Fatalf("blocked write = %v, want the break error", err)
		}
		if n, err := r.Read(make([]byte, 1)); n != 0 || err != torn {
			t.Fatalf("read after break = %d, %v; resident bytes must be discarded", n, err)
		}
	})
	t.Run("after a clean EOF", func(t *testing.T) {
		r, w := New(BlockSize)
		w.Write([]byte("unread"))
		w.Close()
		r.Break(torn)
		if n, err := r.Read(make([]byte, 8)); n != 0 || err != torn {
			t.Fatalf("read = %d, %v; teardown must win over a finished producer", n, err)
		}
	})
	t.Run("keeps an earlier hangup", func(t *testing.T) {
		r, w := New(BlockSize)
		r.Close()
		r.Break(torn)
		if _, err := w.Write([]byte("x")); err != io.ErrClosedPipe {
			t.Fatalf("write = %v, want the original ErrClosedPipe", err)
		}
	})
}

func TestWriteOwnedHandsTheBlockOffUntouched(t *testing.T) {
	r, w := New(BlockSize)
	blk := GetBlock()[:100]
	for i := range blk {
		blk[i] = 'A'
	}
	spare := blk[100:BlockSize]
	for i := range spare {
		spare[i] = 'Z'
	}
	if n, err := w.WriteOwned(blk); n != 100 || err != nil {
		t.Fatalf("WriteOwned = %d, %v", n, err)
	}
	// A following small write must start its own chunk, not coalesce into
	// the spare capacity of a block the pipe did not allocate.
	w.Write([]byte("bbb"))
	w.Close()
	if !bytes.Equal(spare, bytes.Repeat([]byte("Z"), len(spare))) {
		t.Fatal("the pipe wrote into an owned block's spare capacity")
	}
	got, err := io.ReadAll(r)
	if want := string(bytes.Repeat([]byte("A"), 100)) + "bbb"; string(got) != want || err != nil {
		t.Fatalf("read %q, %v", got, err)
	}
	// Consumed: the block is back in the pool, once. Two owners of one
	// block is the failure a double recycle would cause.
	seen := 0
	for i := 0; i < 64; i++ {
		if sameBlock(GetBlock(), blk) {
			seen++
		}
	}
	if seen > 1 {
		t.Fatalf("the pool handed the owned block out %d times", seen)
	}
}

// Every consumed owned block returns to the pool: a producer that takes a
// block per chunk then allocates (almost) nothing in steady state.
func TestWriteOwnedBlocksAreRecycled(t *testing.T) {
	const cycles = 200
	r, w := New(BlockSize)
	sink := make([]byte, BlockSize)
	got := allocatedBy(func() {
		for i := 0; i < cycles; i++ {
			if _, err := w.WriteOwned(GetBlock()[:BlockSize]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(r, sink); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := uint64(cycles * BlockSize / 2); got > limit {
		t.Fatalf("%d owned chunks allocated %d bytes; consumed blocks are not recycled (limit %d)", cycles, got, limit)
	}
	// A rejected hand-off is recycled too, not stranded with the caller.
	r.Close()
	got = allocatedBy(func() {
		for i := 0; i < cycles; i++ {
			w.WriteOwned(GetBlock()[:BlockSize])
		}
	})
	if limit := uint64(cycles * BlockSize / 2); got > limit {
		t.Fatalf("%d rejected owned chunks allocated %d bytes (limit %d)", cycles, got, limit)
	}
}

func TestPipeToPipeCopyHandsChunksOff(t *testing.T) {
	r1, w1 := New(BlockSize)
	r2, w2 := New(BlockSize)
	blk := GetBlock()[:BlockSize]
	for i := range blk {
		blk[i] = byte(i)
	}
	want := append([]byte(nil), blk...)
	w1.WriteOwned(blk)
	w1.Close()
	done := make(chan error, 1)
	go func() {
		n, err := io.Copy(w2, r1)
		if err == nil && n != BlockSize {
			err = io.ErrShortWrite
		}
		w2.Close()
		done <- err
	}()
	data, base, err := r2.p.takeChunk()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBlock(data, blk) || !sameBlock(base, blk) {
		t.Fatal("the chunk was copied on its way from one pipe to the next")
	}
	if !bytes.Equal(data, want) {
		t.Fatal("chunk bytes changed in flight")
	}
	if err := await(t, done); err != nil {
		t.Fatalf("io.Copy: %v", err)
	}
	if n, err := r2.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("after the hand-off: %d, %v; want EOF", n, err)
	}
}

func TestReadFromFillsPooledBlocks(t *testing.T) {
	r, w := New(BlockSize)
	src := bytes.Repeat([]byte("0123456789abcdef"), 3*BlockSize/16+7)
	done := make(chan error, 1)
	go func() {
		// bytes.Reader has WriteTo, which io.Copy would prefer; hide it so
		// the copy resolves to Writer.ReadFrom.
		_, err := io.Copy(w, struct{ io.Reader }{bytes.NewReader(src)})
		w.Close()
		done <- err
	}()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("read %d bytes, err=%v; want %d", len(got), err, len(src))
	}
	if err := await(t, done); err != nil {
		t.Fatal(err)
	}
	if peak := r.PeakBuffered(); peak > 2*BlockSize {
		t.Fatalf("peak residency %d exceeds capacity plus one owned chunk", peak)
	}
}

func TestBlockPoolRecyclesOnlyStandardBlocks(t *testing.T) {
	if b := GetBlock(); len(b) != 0 || cap(b) != BlockSize {
		t.Fatalf("GetBlock: len %d cap %d", len(b), cap(b))
	}
	odd := make([]byte, 0, BlockSize+1)
	PutBlock(odd)
	PutBlock(GetBlock()[:8][1:]) // re-sliced: capacity no longer standard
	for i := 0; i < 64; i++ {
		if b := GetBlock(); cap(b) != BlockSize {
			t.Fatalf("the pool handed out a block of capacity %d", cap(b))
		}
	}
}

func TestBlockedTimesOnlyWhenEnabled(t *testing.T) {
	for _, timed := range []bool{false, true} {
		r, w := New(BlockSize)
		if timed {
			r.EnableTiming()
		}
		done := make(chan error, 1)
		go func() {
			_, err := r.Read(make([]byte, 1))
			done <- err
		}()
		if !blocked(done) {
			t.Fatal("reader never parked")
		}
		w.Write([]byte("x"))
		await(t, done)
		rd, wr := r.BlockedTimes()
		if timed && rd < 40*time.Millisecond {
			t.Fatalf("timed pipe recorded %v of read blocking, want ~50ms", rd)
		}
		if !timed && rd != 0 || wr != 0 {
			t.Fatalf("blocked times = %v, %v with timed=%v", rd, wr, timed)
		}
	}
}
