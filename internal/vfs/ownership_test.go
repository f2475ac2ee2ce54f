package vfs

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/eventloop"
)

// readBuffer reads path through the harness's FS and returns the
// Buffer ReadFile delivers, not a copy of it.
func (h *harness) readBuffer(path string) *buffer.Buffer {
	h.t.Helper()
	var out *buffer.Buffer
	h.run(func(done func()) {
		h.fs.ReadFile(path, func(b *buffer.Buffer, err error) {
			if err != nil {
				h.t.Fatalf("readFile %s: %v", path, err)
			}
			out = b
			done()
		})
	})
	return out
}

func (h *harness) appendFile(path string, data []byte) error {
	var out error
	h.run(func(done func()) {
		h.fs.AppendFile(path, data, func(err error) { out = err; done() })
	})
	return out
}

// TestReadFileBufferBelongsToCaller checks the Backend.Open ownership
// contract the front end relies on when a Buffer adopts the slice
// Open delivers: on every backend, bare and under the write-through
// and write-back caches, scribbling over the Buffer ReadFile returned
// leaves the next ReadFile, and the next AppendFile, unchanged. The
// file is written through the bare backend first, so the first cached
// read misses and the second hits.
func TestReadFileBufferBelongsToCaller(t *testing.T) {
	want := []byte("the quick brown fox jumps over the lazy dog")
	tail := []byte(", twice")
	backends := backendsUnderTest()
	backends["os"] = func(w *browser.Window, _ *buffer.Factory) Backend {
		return NewOSBackend(w.Loop, t.TempDir())
	}
	backends["http"] = func(w *browser.Window, _ *buffer.Factory) Backend {
		w.Remote.Serve("files/f", append([]byte(nil), want...))
		return NewHTTPFS(w.Loop, w.Remote, "files")
	}
	modes := map[string]*CacheOptions{
		"bare":          nil,
		"write-through": {},
		"write-back":    {WriteBack: true},
	}
	for name, mk := range backends {
		for mode, opts := range modes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				var inner Backend
				h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
					inner = mk(w, bufs)
					return inner
				})
				if !inner.ReadOnly() {
					if err := h.writeFile("/f", want); err != nil {
						t.Fatal(err)
					}
				}
				if opts != nil {
					h.fs = New(h.w.Loop, h.fs.BufferFactory(), NewCached(inner, *opts))
				}
				scribbleThenRead := func(want []byte) {
					t.Helper()
					for i := 0; i < 3; i++ {
						b := h.readBuffer("/f")
						if got := b.Bytes(); !bytes.Equal(got, want) {
							t.Fatalf("read %d = %q, want %q", i, got, want)
						}
						b.Fill('#', 0, b.Len())
					}
				}
				scribbleThenRead(want)
				if inner.ReadOnly() {
					return
				}
				if err := h.appendFile("/f", tail); err != nil {
					t.Fatal(err)
				}
				scribbleThenRead(append(append([]byte(nil), want...), tail...))
			})
		}
	}
}

// TestFlatKVSyncOpenAllocations pins the copies on the IndexedDB file
// path: a Sync and an Open of a 64 KiB file through FlatKV over a
// zero-latency AsyncStore allocate the packed string once, the
// unpacked bytes once, and little else.
func TestFlatKVSyncOpenAllocations(t *testing.T) {
	loop := eventloop.New(eventloop.Options{})
	bufs := &buffer.Factory{Typed: true}
	f := NewIndexedDBFS(browser.NewAsyncStore(loop, 0), bufs)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(data)
	packed := len(bufs.Pack(data))
	round := func() {
		loop.Post("test", func() {
			f.Sync("/doc.bin", data, func(err error) {
				if err != nil {
					t.Errorf("sync: %v", err)
					return
				}
				f.Open("/doc.bin", func(got []byte, err error) {
					if err != nil || !bytes.Equal(got, data) {
						t.Errorf("open: %d bytes, %v", len(got), err)
					}
				})
			})
		})
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // loads the index and creates the file
	// TotalAlloc counts the whole process, so take the least of three
	// rounds: an allocation elsewhere in the process lands in one.
	got := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	const slack = 8 << 10
	if limit := uint64(packed + len(data) + slack); got > limit {
		t.Errorf("Sync+Open of %d bytes (packed %d) allocated %d bytes, want at most %d", len(data), packed, got, limit)
	}
}
