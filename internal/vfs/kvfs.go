package vfs

import (
	"sort"
	"strings"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/vfs/vkernel"
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
type FlatKV struct {
	kv   kvAPI
	bufs *buffer.Factory
	name string
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

func (k asyncStoreKV) get(key string, cb func(string, bool)) {
	k.db.Get(key, func(v []byte, ok bool) { cb(string(v), ok) })
}
func (k asyncStoreKV) put(key, val string, cb func(error)) {
	k.db.Put(key, []byte(val), cb)
}
func (k asyncStoreKV) del(key string, cb func()) {
	k.db.Delete(key, func(error) { cb() })
}
func (k asyncStoreKV) keys(cb func([]string)) { k.db.Keys(cb) }

// Name identifies the backend kind.
func (f *FlatKV) Name() string { return f.name }

// ReadOnly reports false: the backend is writable.
func (f *FlatKV) ReadOnly() bool { return false }

// kvNode is what the store holds under one path's two keys.
type kvNode struct {
	val       string // packed contents, when file
	file, dir bool
}

func (n kvNode) exists() bool { return n.file || n.dir }

// kvReq is one store request; it calls done once its answer is in.
type kvReq func(done func())

// together issues every request at once and calls then after the last
// one answers. Like requests queued on one IndexedDB transaction, they
// share a single store round trip instead of taking one each. Store
// callbacks run on the event loop (or inline, for localStorage), so a
// plain counter joins them.
func together(then func(), reqs ...kvReq) {
	left := len(reqs)
	if left == 0 {
		then()
		return
	}
	for _, r := range reqs {
		r(func() {
			if left--; left == 0 {
				then()
			}
		})
	}
}

// load returns the requests that read p's file and directory keys
// into n. The root is implicit and needs none.
func (f *FlatKV) load(p string, n *kvNode) []kvReq {
	if p == "/" {
		n.dir = true
		return nil
	}
	return []kvReq{
		func(done func()) {
			f.kv.get(fileKeyPrefix+p, func(val string, ok bool) { n.val, n.file = val, ok; done() })
		},
		f.has(dirKeyPrefix+p, &n.dir),
	}
}

// has returns a request that records whether key is present.
func (f *FlatKV) has(key string, found *bool) kvReq {
	return func(done func()) {
		f.kv.get(key, func(_ string, ok bool) { *found = ok; done() })
	}
}

// allKeys returns a request that lists every key into keys.
func (f *FlatKV) allKeys(keys *[]string) kvReq {
	return func(done func()) {
		f.kv.keys(func(k []string) { *keys = k; done() })
	}
}

func (f *FlatKV) packContents(data []byte) (string, error) {
	b := f.bufs.FromBytes(data)
	return b.ToString(buffer.Packed, 0, b.Len())
}

func (f *FlatKV) unpackContents(val string) ([]byte, error) {
	b, err := f.bufs.FromString(val, buffer.Packed)
	if err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Stat describes the node at path in one store round trip. A file's
// size comes from its packed string's header and length, without
// unpacking the contents; a corrupt string stats as an empty file.
func (f *FlatKV) Stat(p string, cb func(Stats, error)) {
	var n kvNode
	together(func() {
		switch {
		case n.file:
			size, _ := buffer.PackedLen(n.val)
			cb(Stats{Type: TypeFile, Size: int64(size)}, nil)
		case n.dir:
			cb(Stats{Type: TypeDir}, nil)
		default:
			cb(Stats{}, Err(ENOENT, "stat", p))
		}
	}, f.load(p, &n)...)
}

// Open loads the file's contents, unpacking the stored string, in one
// store round trip.
func (f *FlatKV) Open(p string, cb func([]byte, error)) {
	var n kvNode
	together(func() {
		switch {
		case n.file:
			data, err := f.unpackContents(n.val)
			if err != nil {
				cb(nil, ErrWithCause(EIO, "open", p, err))
				return
			}
			cb(data, nil)
		case n.dir:
			cb(nil, Err(EISDIR, "open", p))
		default:
			cb(nil, Err(ENOENT, "open", p))
		}
	}, f.load(p, &n)...)
}

// Sync writes back the file's contents as a packed string in two store
// round trips: the parent's node and p's directory key together, then
// the put. Quota exhaustion maps to ENOSPC.
func (f *FlatKV) Sync(p string, data []byte, cb func(error)) {
	if p == "/" {
		cb(Err(EISDIR, "sync", p))
		return
	}
	dir, _ := splitDir(p)
	var parent kvNode
	var isDir bool
	together(func() {
		switch {
		case !parent.exists():
			cb(Err(ENOENT, "sync", p))
			return
		case parent.file:
			cb(Err(ENOTDIR, "sync", p))
			return
		case isDir:
			cb(Err(EISDIR, "sync", p))
			return
		}
		packed, err := f.packContents(data)
		if err != nil {
			cb(ErrWithCause(EIO, "sync", p, err))
			return
		}
		f.kv.put(fileKeyPrefix+p, packed, func(err error) {
			cb(kvErr(err, "sync", p))
		})
	}, append(f.load(dir, &parent), f.has(dirKeyPrefix+p, &isDir))...)
}

// Unlink removes a file.
func (f *FlatKV) Unlink(p string, cb func(error)) {
	var n kvNode
	together(func() {
		switch {
		case n.file:
			f.kv.del(fileKeyPrefix+p, func() { cb(nil) })
		case n.dir:
			cb(Err(EISDIR, "unlink", p))
		default:
			cb(Err(ENOENT, "unlink", p))
		}
	}, f.load(p, &n)...)
}

// childNames extracts the immediate child names of dir from the full
// key list.
func childNames(keys []string, dir string) []string {
	seen := make(map[string]bool)
	for _, key := range keys {
		var p string
		switch {
		case strings.HasPrefix(key, fileKeyPrefix):
			p = key[len(fileKeyPrefix):]
		case strings.HasPrefix(key, dirKeyPrefix):
			p = key[len(dirKeyPrefix):]
		default:
			continue
		}
		if name, ok := vkernel.ChildOf(dir, p); ok {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Rmdir removes an empty directory.
func (f *FlatKV) Rmdir(p string, cb func(error)) {
	var n kvNode
	var keys []string
	together(func() {
		switch {
		case !n.exists():
			cb(Err(ENOENT, "rmdir", p))
		case n.file:
			cb(Err(ENOTDIR, "rmdir", p))
		case p == "/":
			cb(Err(EPERM, "rmdir", p))
		case len(childNames(keys, p)) > 0:
			cb(Err(ENOTEMPTY, "rmdir", p))
		default:
			f.kv.del(dirKeyPrefix+p, func() { cb(nil) })
		}
	}, append(f.load(p, &n), f.allKeys(&keys))...)
}

// Mkdir creates a directory marker; the parent must exist.
func (f *FlatKV) Mkdir(p string, cb func(error)) {
	dir, _ := splitDir(p)
	var n, parent kvNode
	together(func() {
		switch {
		case n.exists():
			cb(Err(EEXIST, "mkdir", p))
		case !parent.exists():
			cb(Err(ENOENT, "mkdir", p))
		case parent.file:
			cb(Err(ENOTDIR, "mkdir", p))
		default:
			f.kv.put(dirKeyPrefix+p, "", cb)
		}
	}, append(f.load(p, &n), f.load(dir, &parent)...)...)
}

// Readdir lists the immediate children of a directory in one store
// round trip: the node and the key list together.
func (f *FlatKV) Readdir(p string, cb func([]string, error)) {
	var n kvNode
	var keys []string
	together(func() {
		switch {
		case !n.exists():
			cb(nil, Err(ENOENT, "readdir", p))
		case n.file:
			cb(nil, Err(ENOTDIR, "readdir", p))
		default:
			cb(childNames(keys, p), nil)
		}
	}, append(f.load(p, &n), f.allKeys(&keys))...)
}

// Rename moves a file (directory renames move the marker and all
// descendants).
func (f *FlatKV) Rename(oldPath, newPath string, cb func(error)) {
	if oldPath == newPath {
		cb(nil)
		return
	}
	f.kv.get(fileKeyPrefix+oldPath, func(val string, ok bool) {
		if ok {
			f.kv.put(fileKeyPrefix+newPath, val, func(err error) {
				if err != nil {
					cb(kvErr(err, "rename", newPath))
					return
				}
				f.kv.del(fileKeyPrefix+oldPath, func() { cb(nil) })
			})
			return
		}
		f.kv.get(dirKeyPrefix+oldPath, func(_ string, isDir bool) {
			if !isDir {
				cb(Err(ENOENT, "rename", oldPath))
				return
			}
			// Move the directory marker and every descendant key.
			f.kv.keys(func(keys []string) {
				moves := [][2]string{{dirKeyPrefix + oldPath, dirKeyPrefix + newPath}}
				for _, key := range keys {
					for _, prefix := range []string{fileKeyPrefix, dirKeyPrefix} {
						if strings.HasPrefix(key, prefix+oldPath+"/") {
							moves = append(moves, [2]string{key, prefix + newPath + key[len(prefix+oldPath):]})
						}
					}
				}
				var step func(i int)
				step = func(i int) {
					if i == len(moves) {
						cb(nil)
						return
					}
					from, to := moves[i][0], moves[i][1]
					f.kv.get(from, func(val string, ok bool) {
						if !ok {
							step(i + 1)
							return
						}
						f.kv.put(to, val, func(err error) {
							if err != nil {
								cb(kvErr(err, "rename", newPath))
								return
							}
							f.kv.del(from, func() { step(i + 1) })
						})
					})
				}
				step(0)
			})
		})
	})
}
