package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"doppio/internal/core"
	"doppio/internal/eventloop"
)

// OSBackend adapts a host directory to the Doppio backend API, with
// every operation completing asynchronously on the event loop — the
// shape of a real browser's sandboxed-file-system API. It exists for
// the Figure 6 benchmark (Doppio FS machinery over the same storage
// as the native baseline) and for tools that want the simulated
// browser to see real files.
type OSBackend struct {
	loop *eventloop.Loop
	root string
}

// NewOSBackend creates a backend rooted at dir.
func NewOSBackend(loop *eventloop.Loop, dir string) *OSBackend {
	return &OSBackend{loop: loop, root: dir}
}

// Name identifies the backend.
func (o *OSBackend) Name() string { return "HostOS" }

// ReadOnly reports false.
func (o *OSBackend) ReadOnly() bool { return false }

func (o *OSBackend) path(p string) string {
	return filepath.Join(o.root, filepath.FromSlash(p))
}

// dispatch runs op off the event loop and delivers done back on it,
// like any asynchronous browser API. The completion carries the
// deliver closure as its value.
func (o *OSBackend) dispatch(op func() func()) {
	c := core.NewCompletion(o.loop, "vfs.osfs")
	c.Then(func(v interface{}, _ error) { v.(func())() })
	resolve := c.Resolver()
	go func() {
		resolve(op(), nil)
	}()
}

// osErrno maps a host error onto the errno the Backend contract names
// for it; anything else is EIO.
func osErrno(err error) Errno {
	switch {
	case errors.Is(err, syscall.EISDIR):
		return EISDIR
	case errors.Is(err, syscall.ENOTDIR):
		return ENOTDIR
	case errors.Is(err, os.ErrNotExist):
		return ENOENT
	}
	return EIO
}

// Stat describes the node at path.
func (o *OSBackend) Stat(p string, cb func(Stats, error)) {
	o.dispatch(func() func() {
		fi, err := os.Stat(o.path(p))
		if err != nil {
			return func() { cb(Stats{}, Err(ENOENT, "stat", p)) }
		}
		st := Stats{Type: TypeFile, Size: fi.Size(), Mtime: fi.ModTime()}
		if fi.IsDir() {
			st.Type = TypeDir
		}
		return func() { cb(st, nil) }
	})
}

// Open loads the file's contents.
func (o *OSBackend) Open(p string, cb func([]byte, error)) {
	o.dispatch(func() func() {
		data, err := os.ReadFile(o.path(p))
		if err != nil {
			errno := osErrno(err)
			if errno == ENOTDIR {
				errno = ENOENT // a file parent: nothing is at p
			}
			return func() { cb(nil, ErrWithCause(errno, "open", p, err)) }
		}
		return func() { cb(data, nil) }
	})
}

// Sync writes back the file's contents.
func (o *OSBackend) Sync(p string, data []byte, cb func(error)) {
	cp := append([]byte(nil), data...)
	o.dispatch(func() func() {
		err := os.WriteFile(o.path(p), cp, 0o644)
		if err != nil {
			return func() { cb(ErrWithCause(osErrno(err), "sync", p, err)) }
		}
		return func() { cb(nil) }
	})
}

// Unlink removes a file.
func (o *OSBackend) Unlink(p string, cb func(error)) {
	o.dispatch(func() func() {
		err := os.Remove(o.path(p))
		if err != nil {
			return func() { cb(ErrWithCause(ENOENT, "unlink", p, err)) }
		}
		return func() { cb(nil) }
	})
}

// Rmdir removes an empty directory.
func (o *OSBackend) Rmdir(p string, cb func(error)) {
	o.dispatch(func() func() {
		err := os.Remove(o.path(p))
		if err != nil {
			return func() { cb(ErrWithCause(ENOTEMPTY, "rmdir", p, err)) }
		}
		return func() { cb(nil) }
	})
}

// Mkdir creates a directory.
func (o *OSBackend) Mkdir(p string, cb func(error)) {
	o.dispatch(func() func() {
		err := os.Mkdir(o.path(p), 0o755)
		if err != nil {
			if os.IsExist(err) {
				return func() { cb(Err(EEXIST, "mkdir", p)) }
			}
			return func() { cb(ErrWithCause(ENOENT, "mkdir", p, err)) }
		}
		return func() { cb(nil) }
	})
}

// Readdir lists a directory.
func (o *OSBackend) Readdir(p string, cb func([]string, error)) {
	o.dispatch(func() func() {
		ents, err := os.ReadDir(o.path(p))
		if err != nil {
			return func() { cb(nil, ErrWithCause(ENOENT, "readdir", p, err)) }
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		sort.Strings(names)
		return func() { cb(names, nil) }
	})
}

// Rename moves a file.
func (o *OSBackend) Rename(oldP, newP string, cb func(error)) {
	o.dispatch(func() func() {
		err := os.Rename(o.path(oldP), o.path(newP))
		if err != nil {
			return func() { cb(ErrWithCause(ENOENT, "rename", oldP, err)) }
		}
		return func() { cb(nil) }
	})
}
