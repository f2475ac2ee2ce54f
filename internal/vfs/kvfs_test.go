package vfs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/buffer"
)

// roundKV is a kvAPI whose requests wait until the test answers every
// outstanding one at once: one store round trip. Requests issued from
// those answers wait for the next round.
type roundKV struct {
	data    map[string]string
	pending []func()
}

func (k *roundKV) get(key string, cb func(string, bool)) {
	k.pending = append(k.pending, func() { v, ok := k.data[key]; cb(v, ok) })
}

func (k *roundKV) put(key, val string, cb func(error)) {
	k.pending = append(k.pending, func() { k.data[key] = val; cb(nil) })
}

func (k *roundKV) del(key string, cb func()) {
	k.pending = append(k.pending, func() { delete(k.data, key); cb() })
}

func (k *roundKV) keys(cb func([]string)) {
	k.pending = append(k.pending, func() {
		out := make([]string, 0, len(k.data))
		for key := range k.data {
			out = append(out, key)
		}
		cb(out)
	})
}

// rounds answers requests a round at a time until none are left and
// reports how many rounds that took.
func (k *roundKV) rounds() int {
	n := 0
	for len(k.pending) > 0 {
		batch := k.pending
		k.pending = nil
		n++
		for _, answer := range batch {
			answer()
		}
	}
	return n
}

// kvOp is one backend call of the index tests and the differential
// test; a is its path, b the rename target or the data to sync.
type kvOp struct{ kind, a, b string }

func (o kvOp) String() string { return o.kind + " " + o.a + " " + o.b }

// errnoOf renders an error as its errno, "ok" for nil.
func errnoOf(err error) string {
	if err == nil {
		return "ok"
	}
	if ae, ok := err.(*ApiError); ok {
		return string(ae.Errno)
	}
	return "ERR " + err.Error()
}

// apply issues op on b and returns its answer as text once drain has
// run: what a stat, open or readdir found, or the errno. A call that
// answers twice shows both answers, and one that never answers shows
// "no answer".
func apply(b Backend, drain func(), op kvOp) string {
	var outs []string
	answer := func(s string) { outs = append(outs, s) }
	switch op.kind {
	case "mkdir":
		b.Mkdir(op.a, func(err error) { answer(errnoOf(err)) })
	case "sync":
		b.Sync(op.a, []byte(op.b), func(err error) { answer(errnoOf(err)) })
	case "unlink":
		b.Unlink(op.a, func(err error) { answer(errnoOf(err)) })
	case "rmdir":
		b.Rmdir(op.a, func(err error) { answer(errnoOf(err)) })
	case "rename":
		b.Rename(op.a, op.b, func(err error) { answer(errnoOf(err)) })
	case "stat":
		b.Stat(op.a, func(st Stats, err error) {
			if err != nil {
				answer(errnoOf(err))
				return
			}
			answer(fmt.Sprintf("type %d size %d", st.Type, st.Size))
		})
	case "open":
		b.Open(op.a, func(data []byte, err error) { answer(errnoOf(err) + " " + string(data)) })
	case "readdir":
		b.Readdir(op.a, func(names []string, err error) { answer(fmt.Sprintf("%s %q", errnoOf(err), names)) })
	}
	drain()
	if len(outs) == 0 {
		return "no answer"
	}
	return strings.Join(outs, " | ")
}

func newRoundFlatKV(kv *roundKV) *FlatKV {
	return &FlatKV{kv: kv, bufs: &buffer.Factory{}, name: "rounds"}
}

// kvStep is one row of a round-trip table: a call on a FlatKV over a
// roundKV, its answer, and the store round trips it takes.
type kvStep struct {
	op     kvOp
	rounds int
	want   string
}

func runSteps(t *testing.T, f *FlatKV, kv *roundKV, steps []kvStep) {
	t.Helper()
	for _, s := range steps {
		var n int
		if got := apply(f, func() { n = kv.rounds() }, s.op); got != s.want || n != s.rounds {
			t.Errorf("%v: %q in %d rounds, want %q in %d", s.op, got, n, s.want, s.rounds)
		}
	}
}

// TestFlatKVRoundTrips counts the store round trips each backend call
// takes once the index answers every metadata question.
func TestFlatKVRoundTrips(t *testing.T) {
	kv := &roundKV{data: map[string]string{}}
	file := func(size int) string { return fmt.Sprintf("type %d size %d", TypeFile, size) }
	runSteps(t, newRoundFlatKV(kv), kv, []kvStep{
		// The first call also pays for the index load: one keys request.
		{kvOp{"mkdir", "/d", ""}, 2, "ok"},
		{kvOp{"mkdir", "/d", ""}, 0, "EEXIST"},
		{kvOp{"sync", "/d/a", "hello"}, 1, "ok"},
		{kvOp{"sync", "/d/a", "hello, world"}, 1, "ok"},
		{kvOp{"sync", "/top", "odd"}, 1, "ok"},
		{kvOp{"sync", "/nodir/a", "x"}, 0, "ENOENT"},
		{kvOp{"sync", "/d", "x"}, 0, "EISDIR"},
		{kvOp{"sync", "/", "x"}, 0, "EISDIR"},
		{kvOp{"stat", "/d/a", ""}, 0, file(12)},
		{kvOp{"stat", "/top", ""}, 0, file(3)},
		{kvOp{"stat", "/d", ""}, 0, fmt.Sprintf("type %d size 0", TypeDir)},
		{kvOp{"stat", "/d/zz", ""}, 0, "ENOENT"},
		{kvOp{"open", "/d/a", ""}, 1, "ok hello, world"},
		{kvOp{"open", "/d", ""}, 0, "EISDIR "},
		{kvOp{"open", "/d/zz", ""}, 0, "ENOENT "},
		{kvOp{"readdir", "/", ""}, 0, `ok ["d" "top"]`},
		{kvOp{"unlink", "/top", ""}, 1, "ok"},
		{kvOp{"unlink", "/top", ""}, 0, "ENOENT"},
		{kvOp{"rmdir", "/d", ""}, 0, "ENOTEMPTY"},
	})
}

// TestFlatKVCorruptFileStatsEmpty keeps the old answer for a stored
// string that does not unpack: Stat reports an empty file, Open EIO.
func TestFlatKVCorruptFileStatsEmpty(t *testing.T) {
	kv := &roundKV{data: map[string]string{fileKeyPrefix + "/bad": "X123"}}
	f := &FlatKV{kv: kv, bufs: &buffer.Factory{}, name: "rounds"}
	var st Stats
	var statErr, openErr error
	f.Stat("/bad", func(s Stats, err error) { st, statErr = s, err })
	f.Open("/bad", func(_ []byte, err error) { openErr = err })
	kv.rounds()
	if statErr != nil || !st.IsFile() || st.Size != 0 {
		t.Errorf("stat of a corrupt file = %+v, %v; want an empty file", st, statErr)
	}
	if !IsErrno(openErr, EIO) {
		t.Errorf("open of a corrupt file = %v, want EIO", openErr)
	}
}

// TestFlatKVReloadSeesTree opens a second FlatKV over a store the first
// one populated, as a page reload does: it sees the same tree, and a
// file it did not write costs one get on its first stat, none after.
func TestFlatKVReloadSeesTree(t *testing.T) {
	kv := &roundKV{data: map[string]string{}}
	first := newRoundFlatKV(kv)
	for _, op := range []kvOp{{"mkdir", "/d", ""}, {"mkdir", "/d/e", ""}, {"sync", "/d/a", "hello"}, {"sync", "/top", "odd"}} {
		if got := apply(first, func() { kv.rounds() }, op); got != "ok" {
			t.Fatalf("%v: %s", op, got)
		}
	}
	// A path holding both keys, as a store written before renames
	// checked their target could, indexes as a file.
	kv.data[dirKeyPrefix+"/top"] = ""
	runSteps(t, newRoundFlatKV(kv), kv, []kvStep{
		{kvOp{"stat", "/d/a", ""}, 2, fmt.Sprintf("type %d size 5", TypeFile)}, // keys, then get
		{kvOp{"stat", "/d/a", ""}, 0, fmt.Sprintf("type %d size 5", TypeFile)},
		{kvOp{"open", "/top", ""}, 1, "ok odd"},
		{kvOp{"stat", "/top", ""}, 0, fmt.Sprintf("type %d size 3", TypeFile)}, // the open learned it
		{kvOp{"stat", "/d/e", ""}, 0, fmt.Sprintf("type %d size 0", TypeDir)},
		{kvOp{"readdir", "/", ""}, 0, `ok ["d" "top"]`},
		{kvOp{"readdir", "/d", ""}, 0, `ok ["a" "e"]`},
		{kvOp{"rmdir", "/d", ""}, 0, "ENOTEMPTY"},
	})
}

// TestFlatKVCallsWaitForIndexInOrder issues calls before the keys
// answer arrives: they run in arrival order once it does, and a call
// issued from one of their callbacks runs after every one queued.
func TestFlatKVCallsWaitForIndexInOrder(t *testing.T) {
	kv := &roundKV{data: map[string]string{dirKeyPrefix + "/d": "", fileKeyPrefix + "/d/a": "S"}}
	f := newRoundFlatKV(kv)
	var order []string
	note := func(what string) func(error) {
		return func(err error) { order = append(order, what+" "+errnoOf(err)) }
	}
	f.Stat("/d", func(_ Stats, err error) {
		note("stat /d")(err)
		f.Readdir("/d", func(names []string, err error) { note(fmt.Sprintf("readdir /d %v", names))(err) })
	})
	f.Mkdir("/d", note("mkdir /d"))
	f.Open("/missing", func(_ []byte, err error) { note("open /missing")(err) })
	f.Rmdir("/d", note("rmdir /d"))
	if len(order) != 0 {
		t.Fatalf("calls answered before the index loaded: %v", order)
	}
	if n := kv.rounds(); n != 1 {
		t.Errorf("%d rounds, want 1 (the keys request)", n)
	}
	want := []string{"stat /d ok", "mkdir /d EEXIST", "open /missing ENOENT", "rmdir /d ENOTEMPTY", "readdir /d [a] ok"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("answers %q, want %q", order, want)
	}
}

// TestFlatKVFailedPutLeavesIndex fills a small localStorage: a sync
// that exceeds the quota answers ENOSPC and the index keeps what the
// store keeps.
func TestFlatKVFailedPutLeavesIndex(t *testing.T) {
	f := NewLocalStorageFS(browser.NewLocalStorage(200), &buffer.Factory{})
	if err := bMkdir(f, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := bSync(f, "/d/small", []byte("x")); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 400)
	if err := bSync(f, "/d/big", big); !IsErrno(err, ENOSPC) {
		t.Fatalf("sync past the quota = %v, want ENOSPC", err)
	}
	if err := bSync(f, "/d/small", big); !IsErrno(err, ENOSPC) {
		t.Fatalf("overwrite past the quota = %v, want ENOSPC", err)
	}
	if _, err := bStat(f, "/d/big"); !IsErrno(err, ENOENT) {
		t.Errorf("stat of the failed file = %v, want ENOENT", err)
	}
	if st, err := bStat(f, "/d/small"); err != nil || st.Size != 1 {
		t.Errorf("stat of the file whose overwrite failed = %+v, %v; want size 1", st, err)
	}
	if names, err := bReaddir(f, "/d"); err != nil || fmt.Sprint(names) != "[small]" {
		t.Errorf("readdir = %v, %v; want [small]", names, err)
	}
}

// TestFlatKVDirectoryRename moves a directory with a file and a
// subdirectory beneath it; stat and readdir answer from the moved
// index, and a reopened FlatKV sees the same tree.
func TestFlatKVDirectoryRename(t *testing.T) {
	kv := &roundKV{data: map[string]string{}}
	f := newRoundFlatKV(kv)
	drain := func() { kv.rounds() }
	setup := []kvOp{{"mkdir", "/d", ""}, {"mkdir", "/d/e", ""}, {"sync", "/d/a", "hello"}, {"sync", "/d/e/b", "xy"}, {"rename", "/d", "/n"}}
	for _, op := range setup {
		if got := apply(f, drain, op); got != "ok" {
			t.Fatalf("%v: %s", op, got)
		}
	}
	checks := []struct {
		op   kvOp
		want string
	}{
		{kvOp{"stat", "/n/a", ""}, fmt.Sprintf("type %d size 5", TypeFile)},
		{kvOp{"stat", "/n/e/b", ""}, fmt.Sprintf("type %d size 2", TypeFile)},
		{kvOp{"stat", "/n/e", ""}, fmt.Sprintf("type %d size 0", TypeDir)},
		{kvOp{"stat", "/d", ""}, "ENOENT"},
		{kvOp{"stat", "/d/a", ""}, "ENOENT"},
		{kvOp{"readdir", "/", ""}, `ok ["n"]`},
		{kvOp{"readdir", "/n", ""}, `ok ["a" "e"]`},
		{kvOp{"readdir", "/n/e", ""}, `ok ["b"]`},
		{kvOp{"readdir", "/d", ""}, "ENOENT []"},
		{kvOp{"open", "/n/e/b", ""}, "ok xy"},
	}
	for name, b := range map[string]*FlatKV{"live": f, "reopened": newRoundFlatKV(kv)} {
		for _, c := range checks {
			if got := apply(b, drain, c.op); got != c.want {
				t.Errorf("%s: %v = %q, want %q", name, c.op, got, c.want)
			}
		}
	}
	for key := range kv.data {
		if strings.Contains(key, "!/d") {
			t.Errorf("key %q left behind", key)
		}
	}
}

// TestFlatKVMatchesInMemory runs seeded random call sequences over a
// small path alphabet on InMemory and on FlatKV over the round-counting
// store, then reads the whole alphabet back on both and on a FlatKV
// reopened over the same store: every answer must match.
func TestFlatKVMatchesInMemory(t *testing.T) {
	paths := []string{"/", "/a", "/b", "/a/b", "/a/c", "/b/a", "/a/b/c"}
	kinds := []string{"mkdir", "mkdir", "sync", "sync", "unlink", "rmdir", "rename", "stat", "open", "readdir"}
	var sweep []kvOp
	for _, p := range paths {
		sweep = append(sweep, kvOp{"stat", p, ""}, kvOp{"open", p, ""}, kvOp{"readdir", p, ""})
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := NewInMemory()
		kv := &roundKV{data: map[string]string{}}
		f := newRoundFlatKV(kv)
		drain := func() { kv.rounds() }
		var log []string
		for i := 0; i < 60; i++ {
			op := kvOp{kinds[rng.Intn(len(kinds))], paths[rng.Intn(len(paths))], ""}
			switch op.kind {
			case "rename":
				op.b = paths[rng.Intn(len(paths))]
			case "sync":
				op.b = strings.Repeat("x", rng.Intn(4)) + fmt.Sprint(i)
			}
			want, got := apply(ref, func() {}, op), apply(f, drain, op)
			log = append(log, fmt.Sprintf("%v → %s", op, want))
			if got != want {
				t.Fatalf("seed %d: %v = %q on FlatKV, %q on InMemory; sequence:\n%s", seed, op, got, want, strings.Join(log, "\n"))
			}
		}
		reopened := newRoundFlatKV(kv)
		for _, op := range sweep {
			want := apply(ref, func() {}, op)
			for name, b := range map[string]*FlatKV{"live": f, "reopened": reopened} {
				if got := apply(b, drain, op); got != want {
					t.Fatalf("seed %d: %s %v = %q, InMemory %q; sequence:\n%s", seed, name, op, got, want, strings.Join(log, "\n"))
				}
			}
		}
	}
}
