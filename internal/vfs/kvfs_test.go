package vfs

import (
	"fmt"
	"sort"
	"testing"

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

// TestFlatKVRoundTrips counts the store round trips each backend call
// takes when independent lookups go out together.
func TestFlatKVRoundTrips(t *testing.T) {
	kv := &roundKV{data: map[string]string{}}
	f := &FlatKV{kv: kv, bufs: &buffer.Factory{}, name: "rounds"}

	type step struct {
		what   string
		rounds int
		call   func(done func(string))
		want   string
	}
	errStr := func(err error) string {
		if err == nil {
			return "ok"
		}
		return string(err.(*ApiError).Errno)
	}
	sync := func(p, data string) func(func(string)) {
		return func(done func(string)) { f.Sync(p, []byte(data), func(err error) { done(errStr(err)) }) }
	}
	stat := func(p string) func(func(string)) {
		return func(done func(string)) {
			f.Stat(p, func(st Stats, err error) { done(fmt.Sprintf("%s %d %d", errStr(err), st.Type, st.Size)) })
		}
	}
	steps := []step{
		{"mkdir new", 2, func(done func(string)) { f.Mkdir("/d", func(err error) { done(errStr(err)) }) }, "ok"},
		{"mkdir existing", 1, func(done func(string)) { f.Mkdir("/d", func(err error) { done(errStr(err)) }) }, "EEXIST"},
		{"sync new file", 2, sync("/d/a", "hello"), "ok"},
		{"sync existing file", 2, sync("/d/a", "hello, world"), "ok"},
		{"sync under root", 2, sync("/top", "odd"), "ok"},
		{"sync missing parent", 1, sync("/nodir/a", "x"), "ENOENT"},
		{"sync dir", 1, sync("/d", "x"), "EISDIR"},
		{"sync root", 0, sync("/", "x"), "EISDIR"},
		{"stat file", 1, stat("/d/a"), fmt.Sprintf("ok %d 12", TypeFile)},
		{"stat odd-length file", 1, stat("/top"), fmt.Sprintf("ok %d 3", TypeFile)},
		{"stat dir", 1, stat("/d"), fmt.Sprintf("ok %d 0", TypeDir)},
		{"stat missing", 1, stat("/d/zz"), fmt.Sprintf("ENOENT %d 0", TypeFile)},
		{"open file", 1, func(done func(string)) {
			f.Open("/d/a", func(data []byte, err error) { done(errStr(err) + " " + string(data)) })
		}, "ok hello, world"},
		{"open dir", 1, func(done func(string)) {
			f.Open("/d", func(_ []byte, err error) { done(errStr(err)) })
		}, "EISDIR"},
		{"readdir", 1, func(done func(string)) {
			f.Readdir("/", func(names []string, err error) {
				sort.Strings(names)
				done(fmt.Sprintf("%s %v", errStr(err), names))
			})
		}, "ok [d top]"},
		{"unlink file", 2, func(done func(string)) { f.Unlink("/top", func(err error) { done(errStr(err)) }) }, "ok"},
		{"unlink missing", 1, func(done func(string)) { f.Unlink("/top", func(err error) { done(errStr(err)) }) }, "ENOENT"},
		{"rmdir non-empty", 1, func(done func(string)) { f.Rmdir("/d", func(err error) { done(errStr(err)) }) }, "ENOTEMPTY"},
	}
	for _, s := range steps {
		var got []string
		s.call(func(r string) { got = append(got, r) })
		if n := kv.rounds(); n != s.rounds {
			t.Errorf("%s: %d store round trips, want %d", s.what, n, s.rounds)
		}
		if len(got) != 1 || got[0] != s.want {
			t.Errorf("%s: answered %q, want one %q", s.what, got, s.want)
		}
	}
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
