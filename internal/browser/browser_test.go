package browser

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestProfilesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if p.Name == "" {
			t.Error("profile with empty name")
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.EngineFactor < 1.0 {
			t.Errorf("%s: EngineFactor %v < 1", p.Name, p.EngineFactor)
		}
	}
	if len(Population()) != 5 {
		t.Errorf("Population() has %d browsers, want the paper's 5", len(Population()))
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("Chrome 28")
	if !ok || p.Name != "Chrome 28" {
		t.Fatalf("ByName(Chrome 28) = %+v, %v", p, ok)
	}
	if _, ok := ByName("Netscape 4"); ok {
		t.Error("ByName found a browser that should not exist")
	}
}

func TestPaperQuirksPresent(t *testing.T) {
	if !IE8.SyncPostMessage {
		t.Error("IE8 must have synchronous postMessage (§4.4)")
	}
	if IE8.HasTypedArrays {
		t.Error("IE8 must lack typed arrays")
	}
	if !IE10.HasSetImmediate {
		t.Error("IE10 must have setImmediate (§4.4)")
	}
	if !Safari6.TypedArrayGCLeak {
		t.Error("Safari 6 must model the typed array GC leak (§7.1)")
	}
	for _, p := range []Profile{Chrome28, Firefox22, Safari6, Opera12} {
		if p.HasSetImmediate {
			t.Errorf("%s should not have setImmediate", p.Name)
		}
	}
}

func TestLocalStorageBasics(t *testing.T) {
	s := NewLocalStorage(1 << 20)
	if err := s.SetItem("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetItem("b", "2"); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.GetItem("a"); !ok || v != "1" {
		t.Errorf("GetItem(a) = %q, %v", v, ok)
	}
	if s.Length() != 2 {
		t.Errorf("Length = %d", s.Length())
	}
	if s.Key(0) != "a" || s.Key(1) != "b" || s.Key(2) != "" {
		t.Errorf("Key order wrong: %q %q %q", s.Key(0), s.Key(1), s.Key(2))
	}
	s.RemoveItem("a")
	if _, ok := s.GetItem("a"); ok {
		t.Error("removed key still present")
	}
	s.RemoveItem("a") // no-op
	s.Clear()
	if s.Length() != 0 || s.Used() != 0 {
		t.Errorf("Clear left Length=%d Used=%d", s.Length(), s.Used())
	}
}

func TestLocalStorageQuota(t *testing.T) {
	s := NewLocalStorage(20) // 10 UTF-16 units total
	if err := s.SetItem("k", "12345678"); err != nil {
		t.Fatalf("within quota: %v", err)
	}
	if err := s.SetItem("x", "y"); err != ErrQuotaExceeded {
		t.Errorf("over quota: got %v, want ErrQuotaExceeded", err)
	}
	// Overwriting the same key with a shorter value must free space.
	if err := s.SetItem("k", "1"); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := s.SetItem("x", "y"); err != nil {
		t.Errorf("after shrink: %v", err)
	}
}

func TestLocalStorageUsedAccounting(t *testing.T) {
	f := func(key, val string) bool {
		if key == "" {
			return true
		}
		s := NewLocalStorage(1 << 30)
		if err := s.SetItem(key, val); err != nil {
			return false
		}
		want := 2 * (utf16Units(key) + utf16Units(val))
		if s.Used() != want {
			return false
		}
		s.RemoveItem(key)
		return s.Used() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsyncStoreIsAsynchronous(t *testing.T) {
	w := NewWindow(Chrome28)
	if w.IndexedDB == nil {
		t.Fatal("Chrome window should have IndexedDB")
	}
	var order []string
	w.Loop.Post("main", func() {
		w.IndexedDB.Put("k", "v", func(err error) {
			if err != nil {
				t.Errorf("Put: %v", err)
			}
			order = append(order, "put-done")
			w.IndexedDB.Get("k", func(v string, found bool) {
				if !found || v != "v" {
					t.Errorf("Get = %q, %v", v, found)
				}
				order = append(order, "get-done")
			})
		})
		order = append(order, "after-put-call")
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "after-put-call,put-done,get-done" {
		t.Errorf("order = %v: completions must be asynchronous", order)
	}
}

func TestAsyncStoreDeleteAndKeys(t *testing.T) {
	w := NewWindow(IE10)
	w.Loop.Post("main", func() {
		w.IndexedDB.Put("a", "1", func(error) {})
		w.IndexedDB.Put("b", "2", func(error) {
			w.IndexedDB.Delete("a", func(error) {
				w.IndexedDB.Keys(func(keys []string) {
					if len(keys) != 1 || keys[0] != "b" {
						t.Errorf("Keys = %v", keys)
					}
				})
			})
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if w.IndexedDB.Len() != 1 {
		t.Errorf("Len = %d", w.IndexedDB.Len())
	}
}

func TestProfilesWithoutIndexedDB(t *testing.T) {
	for _, p := range []Profile{Safari6, Opera12, IE8} {
		if w := NewWindow(p); w.IndexedDB != nil {
			t.Errorf("%s should not have IndexedDB", p.Name)
		}
	}
}

func TestXHRGetAsync(t *testing.T) {
	w := NewWindow(Chrome28)
	w.Remote.Serve("/assets/a.bin", []byte{1, 2, 3})
	var got []byte
	var gotErr error
	w.Loop.Post("main", func() {
		w.Remote.XHRGetAsync(w.Loop, "assets/a.bin", func(data []byte, err error) {
			got, gotErr = data, err
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil || string(got) != "\x01\x02\x03" {
		t.Errorf("XHR = %v, %v", got, gotErr)
	}
}

func TestXHR404(t *testing.T) {
	w := NewWindow(Firefox22)
	var gotErr error
	w.Loop.Post("main", func() {
		w.Remote.XHRGetAsync(w.Loop, "missing", func(_ []byte, err error) { gotErr = err })
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	se, ok := gotErr.(*StatusError)
	if !ok || se.Status != 404 {
		t.Errorf("got %v, want 404 StatusError", gotErr)
	}
}

func TestXHRIndexSorted(t *testing.T) {
	r := NewRemoteServer()
	r.Serve("b", nil)
	r.Serve("/a", []byte("x"))
	idx := r.Index()
	if len(idx) != 2 || idx[0] != "a" || idx[1] != "b" {
		t.Errorf("Index = %v", idx)
	}
}

func TestSafariTypedArrayLeak(t *testing.T) {
	w := NewWindow(Safari6)
	w.NoteTypedArrayAlloc(1 << 20)
	w.NoteTypedArrayAlloc(1 << 20)
	if got := w.LeakedTypedArrayBytes(); got != 2<<20 {
		t.Errorf("leaked = %d, want 2MiB", got)
	}
	chrome := NewWindow(Chrome28)
	chrome.NoteTypedArrayAlloc(1 << 20)
	if got := chrome.LeakedTypedArrayBytes(); got != 0 {
		t.Errorf("Chrome leaked %d bytes; the bug is Safari-only", got)
	}
}

func TestSafariPagingStall(t *testing.T) {
	w := NewWindow(Safari6)
	// Fill past the paging threshold.
	for i := 0; i < 10; i++ {
		w.NoteTypedArrayAlloc(1 << 20)
	}
	start := time.Now()
	w.NoteTypedArrayAlloc(1 << 20)
	if elapsed := time.Since(start); elapsed < 10*time.Microsecond {
		t.Errorf("allocation past threshold took %v; expected a paging stall", elapsed)
	}
}
