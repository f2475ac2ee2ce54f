package vfs

import (
	"sort"
	"strings"

	"doppio/internal/browser"
	"doppio/internal/buffer"
)

// kvErr classifies a raw key/value store failure into an *ApiError,
// so every FlatKV failure path is classifiable by vfs.Classify:
// quota exhaustion is ENOSPC (final), anything else is EIO
// (transient). A nil error stays nil.
func kvErr(err error, op, path string) error {
	if err == nil {
		return nil
	}
	if err == browser.ErrQuotaExceeded {
		return ErrWithCause(ENOSPC, op, path, err)
	}
	return ErrWithCause(EIO, op, path, err)
}

// kvAPI is the minimal key/value contract shared by localStorage
// (synchronous strings) and IndexedDB (asynchronous objects); the
// FlatKV backend is written once against it, which is how the paper's
// "two browser-local storage mechanisms" backends share their logic.
type kvAPI interface {
	get(key string, cb func(val string, ok bool))
	put(key, val string, cb func(err error))
	del(key string, cb func())
	keys(cb func([]string))
}

// FlatKV stores a file tree in a flat key/value namespace:
//
//	"f!<path>" → file contents as a packed binary string (§5.1's
//	             Buffer string conversion serving "double-duty" for
//	             string-based storage mechanisms)
//	"d!<path>" → directory marker
//
// The root directory is implicit.
//
// A FlatKV keeps an in-memory index of its namespace: every path, and
// whether it is a file or a directory, with the file's size once known.
// The first call builds it from one keys request; calls that arrive
// before that answer wait, in arrival order. After that the index is
// updated in the completion callback of each put and del that
// succeeds, so metadata calls (Stat, Readdir, and the parent and
// target checks of the calls that write) take no store round trip.
// A file listed at load pays one get on its first Stat, for its size.
//
// The index rests on one contract: a FlatKV is the only writer of its
// store's f! and d! keys. In the paper's setting one window owns its
// storage, and every constructor in this repository opens one FlatKV
// per store. A FlatKV opened later over a populated store (a page
// reload) rebuilds its index from the keys.
type FlatKV struct {
	kv   kvAPI
	bufs *buffer.Factory
	name string

	nodes map[string]kvEntry             // path → node; nil until loaded
	kids  map[string]map[string]struct{} // parent path → child names
	queue []func()                       // calls waiting for the index
}

// kvEntry is the index's record of one path.
type kvEntry struct {
	dir  bool
	size int64 // unpacked file size; -1 until known
}

const (
	fileKeyPrefix = "f!"
	dirKeyPrefix  = "d!"
)

// NewLocalStorageFS creates a backend over the window's synchronous
// localStorage, packing file bytes into strings via bufs.
func NewLocalStorageFS(ls *browser.LocalStorage, bufs *buffer.Factory) *FlatKV {
	return &FlatKV{kv: localStorageKV{ls}, bufs: bufs, name: "LocalStorage"}
}

// NewIndexedDBFS creates a backend over the window's asynchronous
// IndexedDB-like object store.
func NewIndexedDBFS(db *browser.AsyncStore, bufs *buffer.Factory) *FlatKV {
	return &FlatKV{kv: asyncStoreKV{db}, bufs: bufs, name: "IndexedDB"}
}

type localStorageKV struct{ ls *browser.LocalStorage }

func (k localStorageKV) get(key string, cb func(string, bool)) { cb(k.ls.GetItem(key)) }
func (k localStorageKV) put(key, val string, cb func(error))   { cb(k.ls.SetItem(key, val)) }
func (k localStorageKV) del(key string, cb func())             { k.ls.RemoveItem(key); cb() }
func (k localStorageKV) keys(cb func([]string)) {
	n := k.ls.Length()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, k.ls.Key(i))
	}
	cb(out)
}

type asyncStoreKV struct{ db *browser.AsyncStore }

func (k asyncStoreKV) get(key string, cb func(string, bool)) { k.db.Get(key, cb) }
func (k asyncStoreKV) put(key, val string, cb func(error))   { k.db.Put(key, val, cb) }
func (k asyncStoreKV) del(key string, cb func()) {
	k.db.Delete(key, func(error) { cb() })
}
func (k asyncStoreKV) keys(cb func([]string)) { k.db.Keys(cb) }

// Name identifies the backend kind.
func (f *FlatKV) Name() string { return f.name }

// ReadOnly reports false: the backend is writable.
func (f *FlatKV) ReadOnly() bool { return false }

// ready runs call once the index is loaded. The first call loads it
// with one keys request; calls that arrive before the answer, or while
// the waiting ones run, queue behind them and run in arrival order.
func (f *FlatKV) ready(call func()) {
	if f.nodes != nil && f.queue == nil {
		call()
		return
	}
	f.queue = append(f.queue, call)
	if f.nodes == nil && len(f.queue) == 1 {
		f.kv.keys(f.buildIndex)
	}
}

// buildIndex builds the index from the store's key list, then runs the
// calls that waited for it. A path holding both keys indexes as a file.
func (f *FlatKV) buildIndex(keys []string) {
	f.nodes = map[string]kvEntry{"/": {dir: true}}
	f.kids = make(map[string]map[string]struct{})
	for _, key := range keys {
		if p, ok := strings.CutPrefix(key, fileKeyPrefix); ok && p != "/" {
			f.add(p, kvEntry{size: -1})
		} else if p, ok := strings.CutPrefix(key, dirKeyPrefix); ok {
			if _, seen := f.nodes[p]; !seen {
				f.add(p, kvEntry{dir: true})
			}
		}
	}
	for len(f.queue) > 0 {
		call := f.queue[0]
		f.queue = f.queue[1:]
		call()
	}
	f.queue = nil
}

// add records the node at p and lists it under its parent.
func (f *FlatKV) add(p string, n kvEntry) {
	f.nodes[p] = n
	dir, base := splitDir(p)
	kids := f.kids[dir]
	if kids == nil {
		kids = make(map[string]struct{})
		f.kids[dir] = kids
	}
	kids[base] = struct{}{}
}

// remove drops the node at p from the index.
func (f *FlatKV) remove(p string) {
	delete(f.nodes, p)
	dir, base := splitDir(p)
	if kids := f.kids[dir]; kids != nil {
		delete(kids, base)
		if len(kids) == 0 {
			delete(f.kids, dir)
		}
	}
}

// learnSize records size for the file at p if the index lacks it.
func (f *FlatKV) learnSize(p string, size int64) {
	if n, ok := f.nodes[p]; ok && !n.dir && n.size < 0 {
		n.size = size
		f.nodes[p] = n
	}
}

// parentErr is the check every call that creates, removes or moves p
// makes on its parent: EINVAL for the root itself, ENOENT when the
// parent is missing, ENOTDIR when it is a file. A path in the index
// always has a directory for a parent, so the calls ask only about
// the paths it lacks.
func (f *FlatKV) parentErr(op, p string) error {
	if p == "/" {
		return Err(EINVAL, op, p)
	}
	dir, _ := splitDir(p)
	parent, ok := f.nodes[dir]
	switch {
	case !ok:
		return Err(ENOENT, op, p)
	case !parent.dir:
		return Err(ENOTDIR, op, p)
	}
	return nil
}

// missingErr answers a call that needs p to exist, for a p the index
// lacks: the parent's fault, or else ENOENT.
func (f *FlatKV) missingErr(op, p string) error {
	if err := f.parentErr(op, p); err != nil {
		return err
	}
	return Err(ENOENT, op, p)
}

// Stat describes the node at path from the index. A file whose size
// the index lacks costs one get; its size comes from the packed
// string's header and length (buffer.PackedLen), without unpacking,
// and a corrupt string counts as an empty file.
func (f *FlatKV) Stat(p string, cb func(Stats, error)) {
	f.ready(func() {
		n, ok := f.nodes[p]
		switch {
		case !ok:
			cb(Stats{}, Err(ENOENT, "stat", p))
		case n.dir:
			cb(Stats{Type: TypeDir}, nil)
		case n.size >= 0:
			cb(Stats{Type: TypeFile, Size: n.size}, nil)
		default:
			f.kv.get(fileKeyPrefix+p, func(val string, found bool) {
				if !found {
					cb(Stats{}, Err(ENOENT, "stat", p))
					return
				}
				size, _ := buffer.PackedLen(val)
				f.learnSize(p, int64(size))
				cb(Stats{Type: TypeFile, Size: int64(size)}, nil)
			})
		}
	})
}

// Open loads the file's contents, unpacking the stored string, in one
// get; a path the index knows to be missing or a directory takes none.
func (f *FlatKV) Open(p string, cb func([]byte, error)) {
	f.ready(func() {
		n, ok := f.nodes[p]
		switch {
		case !ok:
			cb(nil, Err(ENOENT, "open", p))
		case n.dir:
			cb(nil, Err(EISDIR, "open", p))
		default:
			f.kv.get(fileKeyPrefix+p, func(val string, found bool) {
				if !found {
					cb(nil, Err(ENOENT, "open", p))
					return
				}
				data, err := f.bufs.Unpack(val)
				if err != nil {
					cb(nil, ErrWithCause(EIO, "open", p, err))
					return
				}
				f.learnSize(p, int64(len(data)))
				cb(data, nil)
			})
		}
	})
}

// Sync writes back the file's contents as a packed string in one put.
// Quota exhaustion maps to ENOSPC and leaves the index unchanged.
func (f *FlatKV) Sync(p string, data []byte, cb func(error)) {
	f.ready(func() {
		n, ok := f.nodes[p]
		var err error
		switch {
		case n.dir:
			err = Err(EISDIR, "sync", p)
		case !ok:
			err = f.parentErr("sync", p)
		}
		if err != nil {
			cb(err)
			return
		}
		f.kv.put(fileKeyPrefix+p, f.bufs.Pack(data), func(err error) {
			if err != nil {
				cb(kvErr(err, "sync", p))
				return
			}
			f.add(p, kvEntry{size: int64(len(data))})
			cb(nil)
		})
	})
}

// Unlink removes a file in one del.
func (f *FlatKV) Unlink(p string, cb func(error)) {
	f.ready(func() {
		n, ok := f.nodes[p]
		switch {
		case !ok:
			cb(f.missingErr("unlink", p))
		case n.dir:
			cb(Err(EISDIR, "unlink", p))
		default:
			f.kv.del(fileKeyPrefix+p, func() {
				f.remove(p)
				cb(nil)
			})
		}
	})
}

// Rmdir removes an empty directory in one del.
func (f *FlatKV) Rmdir(p string, cb func(error)) {
	f.ready(func() {
		n, ok := f.nodes[p]
		switch {
		case !ok:
			cb(f.missingErr("rmdir", p))
		case p == "/":
			cb(Err(EPERM, "rmdir", p))
		case !n.dir:
			cb(Err(ENOTDIR, "rmdir", p))
		case len(f.kids[p]) > 0:
			cb(Err(ENOTEMPTY, "rmdir", p))
		default:
			f.kv.del(dirKeyPrefix+p, func() {
				f.remove(p)
				cb(nil)
			})
		}
	})
}

// Mkdir creates a directory marker in one put; the parent must exist.
func (f *FlatKV) Mkdir(p string, cb func(error)) {
	f.ready(func() {
		if _, ok := f.nodes[p]; ok {
			cb(Err(EEXIST, "mkdir", p))
			return
		}
		if err := f.parentErr("mkdir", p); err != nil {
			cb(err)
			return
		}
		f.kv.put(dirKeyPrefix+p, "", func(err error) {
			if err != nil {
				cb(kvErr(err, "mkdir", p))
				return
			}
			f.add(p, kvEntry{dir: true})
			cb(nil)
		})
	})
}

// Readdir lists the immediate children of a directory, sorted, from
// the index.
func (f *FlatKV) Readdir(p string, cb func([]string, error)) {
	f.ready(func() {
		n, ok := f.nodes[p]
		switch {
		case !ok:
			cb(nil, Err(ENOENT, "readdir", p))
		case !n.dir:
			cb(nil, Err(ENOTDIR, "readdir", p))
		default:
			names := make([]string, 0, len(f.kids[p]))
			for name := range f.kids[p] {
				names = append(names, name)
			}
			sort.Strings(names)
			cb(names, nil)
		}
	})
}

// Rename moves a file, or a directory marker and every key beneath it,
// replacing a file with a file or an empty directory with a directory.
// The keys move one at a time, parents first, and the index follows
// each one.
func (f *FlatKV) Rename(oldPath, newPath string, cb func(error)) {
	f.ready(func() {
		n, ok := f.nodes[oldPath]
		switch {
		case !ok:
			cb(f.missingErr("rename", oldPath))
			return
		case oldPath == "/":
			cb(Err(EINVAL, "rename", oldPath))
			return
		}
		if err := f.parentErr("rename", newPath); err != nil {
			cb(err)
			return
		}
		target, exists := f.nodes[newPath]
		switch {
		case n.dir && strings.HasPrefix(newPath, oldPath+"/"):
			cb(Err(EINVAL, "rename", newPath))
			return
		case oldPath == newPath:
			cb(nil)
			return
		case exists && target.dir && len(f.kids[newPath]) > 0:
			cb(Err(ENOTEMPTY, "rename", newPath))
			return
		case exists && target.dir && !n.dir:
			cb(Err(EISDIR, "rename", newPath))
			return
		case exists && !target.dir && n.dir:
			cb(Err(ENOTDIR, "rename", newPath))
			return
		}
		moves := []string{oldPath}
		if n.dir {
			var under []string
			for p := range f.nodes {
				if strings.HasPrefix(p, oldPath+"/") {
					under = append(under, p)
				}
			}
			sort.Strings(under)
			moves = append(moves, under...)
		}
		f.move(moves, oldPath, newPath, cb)
	})
}

// move renames each path in paths from under oldPath to under newPath:
// a directory marker with a put and a del, a file with a get, a put
// and a del.
func (f *FlatKV) move(paths []string, oldPath, newPath string, cb func(error)) {
	if len(paths) == 0 {
		cb(nil)
		return
	}
	from := paths[0]
	to := newPath + from[len(oldPath):]
	next := func() { f.move(paths[1:], oldPath, newPath, cb) }
	put := func(prefix, val string, n kvEntry) {
		f.kv.put(prefix+to, val, func(err error) {
			if err != nil {
				cb(kvErr(err, "rename", newPath))
				return
			}
			f.add(to, n)
			f.kv.del(prefix+from, func() {
				f.remove(from)
				next()
			})
		})
	}
	if f.nodes[from].dir {
		put(dirKeyPrefix, "", kvEntry{dir: true})
		return
	}
	f.kv.get(fileKeyPrefix+from, func(val string, ok bool) {
		if !ok {
			next()
			return
		}
		size, _ := buffer.PackedLen(val)
		put(fileKeyPrefix, val, kvEntry{size: int64(size)})
	})
}
