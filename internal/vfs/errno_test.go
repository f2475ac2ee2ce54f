package vfs

import (
	"fmt"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/buffer"
)

// TestWholeFileErrnos pins the errno every whole-file call returns on
// the failure cases the front end once screened with Stat: the
// backends' Open and Sync now answer them alone (the Backend errno
// contract), bare, under a write-through cache and under a write-back
// cache.
func TestWholeFileErrnos(t *testing.T) {
	type tcase struct {
		name, path string
		only       string // the one backend the case applies to, if any
	}
	// "missing" comes last: writeFile and appendFile create it.
	cases := []tcase{
		{"dir", "/dir", ""},
		{"missing-parent", "/nodir/x", ""},
		{"file-parent", "/file/x", ""},
		{"root", "/", ""},
		{"mount-point", "/kv", "mounted"},
		{"mount-point", "/m/kv", "nested-mount"},
		{"mount-ancestor", "/m", "nested-mount"},
		{"missing", "/missing", ""},
	}
	want := map[string]map[string]Errno{
		"readFile": {"dir": EISDIR, "missing-parent": ENOENT, "file-parent": ENOENT,
			"root": EISDIR, "mount-point": EISDIR, "mount-ancestor": EISDIR, "missing": ENOENT},
		"writeFile": {"dir": EISDIR, "missing-parent": ENOENT, "file-parent": ENOTDIR,
			"root": EISDIR, "mount-point": EISDIR, "mount-ancestor": EISDIR, "missing": ""},
		"appendFile": {"dir": EISDIR, "missing-parent": ENOENT, "file-parent": ENOTDIR,
			"root": EISDIR, "mount-point": EISDIR, "mount-ancestor": EISDIR, "missing": ""},
	}
	call := func(h *harness, op, p string) error {
		switch op {
		case "readFile":
			_, err := h.readFile(p)
			return err
		case "writeFile":
			return h.writeFile(p, []byte("w"))
		}
		var out error
		h.run(func(done func()) { h.fs.AppendFile(p, []byte("a"), func(err error) { out = err; done() }) })
		return out
	}

	backends := backendsUnderTest()
	backends["os"] = func(w *browser.Window, _ *buffer.Factory) Backend {
		return NewOSBackend(w.Loop, t.TempDir())
	}
	// /m exists only as the ancestor of a mount point.
	backends["nested-mount"] = func(w *browser.Window, bufs *buffer.Factory) Backend {
		m := NewMountFS(NewInMemory())
		m.Mount("/m/kv", NewLocalStorageFS(w.LocalStorage, bufs))
		return m
	}
	wraps := map[string]func(Backend) Backend{
		"bare":      func(b Backend) Backend { return b },
		"cached":    func(b Backend) Backend { return NewCached(b, CacheOptions{}) },
		"writeback": func(b Backend) Backend { return NewCached(b, CacheOptions{WriteBack: true}) },
	}
	for name, mk := range backends {
		for wname, wrap := range wraps {
			for _, op := range []string{"readFile", "writeFile", "appendFile"} {
				name, mk, wrap, op := name, mk, wrap, op
				t.Run(fmt.Sprintf("%s/%s/%s", name, wname, op), func(t *testing.T) {
					h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
						return wrap(mk(w, bufs))
					})
					if err := h.mkdir("/dir"); err != nil {
						t.Fatal(err)
					}
					if err := h.writeFile("/file", []byte("f")); err != nil {
						t.Fatal(err)
					}
					for _, c := range cases {
						if c.only != "" && c.only != name {
							continue
						}
						var got Errno
						if err := call(h, op, c.path); err != nil {
							got = "ERR"
							if ae, ok := err.(*ApiError); ok {
								got = ae.Errno
							}
						}
						if got != want[op][c.name] {
							t.Errorf("%s(%s) on a %s: errno %q, want %q", op, c.path, c.name, got, want[op][c.name])
						}
					}
				})
			}
		}
	}
}

// TestWholeFileCallsAreOneBackendCall checks that ReadFile and
// WriteFile reach the backend exactly once, and AppendFile twice (the
// Open of the old contents, then the Sync), whatever the outcome.
func TestWholeFileCallsAreOneBackendCall(t *testing.T) {
	var log []string
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend {
		return &loggedBackend{b: NewInMemory(), log: &log}
	})
	if err := h.mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	calls := func(what string, want int, fn func()) {
		t.Helper()
		log = nil
		fn()
		if len(log) != want {
			t.Errorf("%s: backend calls %v, want %d", what, log, want)
		}
	}
	calls("writeFile new", 1, func() { h.writeFile("/f", []byte("one")) })
	calls("writeFile existing", 1, func() { h.writeFile("/f", []byte("two")) })
	calls("writeFile dir", 1, func() { h.writeFile("/dir", []byte("x")) })
	calls("writeFile missing parent", 1, func() { h.writeFile("/no/f", []byte("x")) })
	calls("readFile", 1, func() { h.readFile("/f") })
	calls("readFile missing", 1, func() { h.readFile("/missing") })
	calls("readFile dir", 1, func() { h.readFile("/dir") })
	calls("appendFile", 2, func() {
		h.run(func(done func()) { h.fs.AppendFile("/f", []byte("+"), func(error) { done() }) })
	})
	if got, err := h.readFile("/f"); err != nil || string(got) != "two+" {
		t.Errorf("after appendFile: %q, %v", got, err)
	}
}
