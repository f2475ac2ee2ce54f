package browser

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/jsstring"
	"doppio/internal/telemetry"
)

// Window ties a browser profile to a live event loop and the storage
// mechanisms the profile supports. It is the "browser instance" that a
// Doppio runtime executes inside.
type Window struct {
	Profile Profile
	Loop    *eventloop.Loop

	// LocalStorage is the synchronous string key/value store
	// (Table 2: standardized, 5 MB, ~90% compatibility).
	LocalStorage *LocalStorage

	// IndexedDB is the asynchronous object store, or nil when the
	// profile lacks it (Table 2: <50% compatibility).
	IndexedDB *AsyncStore

	// Remote serves XHR downloads (the web server hosting the page).
	Remote *RemoteServer

	// Telemetry, when non-nil, is the observability hub every runtime
	// layer hosted in this window (event loop, core, JVM, sockets)
	// reports into. Set it with EnableTelemetry.
	Telemetry *telemetry.Hub

	leakedTypedBytes atomic.Int64
}

// NewWindow creates a browser window for the profile with an idle event
// loop and fresh storage.
func NewWindow(p Profile) *Window {
	w := &Window{
		Profile: p,
		Loop: eventloop.New(eventloop.Options{
			MinTimeoutDelay: p.MinTimeoutDelay,
			HasSetImmediate: p.HasSetImmediate,
			SyncPostMessage: p.SyncPostMessage,
			WatchdogLimit:   p.WatchdogLimit,
		}),
		LocalStorage: NewLocalStorage(p.LocalStorageQuota),
		Remote:       NewRemoteServer(),
	}
	if p.HasIndexedDB {
		w.IndexedDB = NewAsyncStore(w.Loop, p.StorageLatency)
	}
	return w
}

// EnableTelemetry attaches an observability hub to the window and wires
// it into the event loop. Layers created afterwards (core runtimes, JVMs,
// sockets) pick the hub up from w.Telemetry automatically.
func (w *Window) EnableTelemetry(h *telemetry.Hub) {
	w.Telemetry = h
	w.Loop.EnableTelemetry(h)
}

// NoteTypedArrayAlloc records a typed-array allocation of n bytes.
// On profiles with the Safari GC bug the bytes are never reclaimed;
// past the paging threshold every further allocation simulates the
// memory-pressure stall the paper observed on the javap benchmark
// (§7.1: "Safari's memory footprint grows to over 6GB ... causing the
// OS to page memory to disk").
func (w *Window) NoteTypedArrayAlloc(n int) {
	if !w.Profile.TypedArrayGCLeak || n <= 0 {
		return
	}
	leaked := w.leakedTypedBytes.Add(int64(n))
	if leaked > pagingThreshold {
		// Thrash proportionally to how far past the threshold we are.
		over := leaked - pagingThreshold
		stall := time.Duration(over/pagingStallDivisor) * time.Microsecond
		if stall > maxPagingStall {
			stall = maxPagingStall
		}
		if stall > 0 {
			busyWait(stall)
		}
	}
}

// LeakedTypedArrayBytes reports how much typed-array memory has leaked
// (always zero on profiles without the bug).
func (w *Window) LeakedTypedArrayBytes() int64 { return w.leakedTypedBytes.Load() }

const (
	// pagingThreshold is scaled down from the multi-gigabyte real
	// footprint so the pathology manifests at simulation scale.
	pagingThreshold    = 8 << 20 // 8 MiB of leaked typed arrays
	pagingStallDivisor = 64 << 10
	maxPagingStall     = 2 * time.Millisecond
)

// busyWait spins for roughly d; paging stalls burn CPU rather than
// yielding, which is what makes them so painful in the browser.
func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// LocalStorage is the synchronous string key/value store available in
// ~90% of browsers (Table 2). Keys and values are strings; the quota
// is enforced as two bytes per stored UTF-16 code unit, as real
// browsers do.
type LocalStorage struct {
	mu    sync.Mutex
	data  map[string]string
	keys  []string // insertion order, for Key(i)
	used  int
	quota int
}

// NewLocalStorage creates an empty store with the given byte quota.
func NewLocalStorage(quota int) *LocalStorage {
	return &LocalStorage{data: make(map[string]string), quota: quota}
}

// ErrQuotaExceeded is returned when a SetItem would exceed the quota,
// mirroring the DOM QuotaExceededError.
var ErrQuotaExceeded = fmt.Errorf("browser: QuotaExceededError: localStorage quota exceeded")

// utf16Units counts UTF-16 code units WTF-8-aware, so that packed
// binary strings (which contain lone surrogates) are charged correctly.
func utf16Units(s string) int { return jsstring.Units(s) }

// SetItem stores value under key, enforcing the quota.
func (s *LocalStorage) SetItem(key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cost := 2 * (utf16Units(key) + utf16Units(value))
	old, exists := s.data[key]
	oldCost := 0
	if exists {
		oldCost = 2 * (utf16Units(key) + utf16Units(old))
	}
	if s.used-oldCost+cost > s.quota {
		return ErrQuotaExceeded
	}
	s.used += cost - oldCost
	s.data[key] = value
	if !exists {
		s.keys = append(s.keys, key)
	}
	return nil
}

// GetItem returns the value for key and whether it exists.
func (s *LocalStorage) GetItem(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// RemoveItem deletes key; removing an absent key is a no-op.
func (s *LocalStorage) RemoveItem(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.data[key]
	if !ok {
		return
	}
	s.used -= 2 * (utf16Units(key) + utf16Units(old))
	delete(s.data, key)
	for i, k := range s.keys {
		if k == key {
			s.keys = append(s.keys[:i], s.keys[i+1:]...)
			break
		}
	}
}

// Length returns the number of stored keys.
func (s *LocalStorage) Length() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// Key returns the i'th key in insertion order, or "" if out of range.
func (s *LocalStorage) Key(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.keys) {
		return ""
	}
	return s.keys[i]
}

// Clear removes everything.
func (s *LocalStorage) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = make(map[string]string)
	s.keys = nil
	s.used = 0
}

// Used reports the bytes currently counted against the quota.
func (s *LocalStorage) Used() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// AsyncStore is the IndexedDB-like asynchronous object store: string
// values keyed by string, with every operation completing on a later
// event-loop turn after the profile's storage latency. There is no
// synchronous interface — which is exactly why Doppio needs
// suspend-and-resume to expose it to blocking programs (§5.1).
//
// Values are strings, as Doppio stores file data in them (§5.1). A
// JavaScript string is immutable, so IndexedDB's structured clone of
// one shares it rather than copying it, and so do Put and Get here.
type AsyncStore struct {
	loop    *eventloop.Loop
	latency time.Duration

	mu   sync.Mutex
	data map[string]string
}

// NewAsyncStore creates an empty async store delivering completions on
// loop after latency.
func NewAsyncStore(loop *eventloop.Loop, latency time.Duration) *AsyncStore {
	return &AsyncStore{loop: loop, latency: latency, data: make(map[string]string)}
}

func (s *AsyncStore) complete(label string, fn func()) {
	c := core.NewCompletion(s.loop, label)
	c.Then(func(interface{}, error) { fn() })
	resolve := c.Resolver()
	go func() {
		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		resolve(nil, nil)
	}()
}

// Get fetches key and delivers (value, found) asynchronously.
func (s *AsyncStore) Get(key string, cb func(value string, found bool)) {
	s.complete("idb-get", func() {
		s.mu.Lock()
		v, ok := s.data[key]
		s.mu.Unlock()
		cb(v, ok)
	})
}

// Put stores value under key and delivers completion asynchronously.
func (s *AsyncStore) Put(key, value string, cb func(err error)) {
	s.complete("idb-put", func() {
		s.mu.Lock()
		s.data[key] = value
		s.mu.Unlock()
		cb(nil)
	})
}

// Delete removes key and delivers completion asynchronously.
func (s *AsyncStore) Delete(key string, cb func(err error)) {
	s.complete("idb-delete", func() {
		s.mu.Lock()
		delete(s.data, key)
		s.mu.Unlock()
		cb(nil)
	})
}

// Keys delivers a snapshot of all keys asynchronously.
func (s *AsyncStore) Keys(cb func(keys []string)) {
	s.complete("idb-keys", func() {
		s.mu.Lock()
		keys := make([]string, 0, len(s.data))
		for k := range s.data {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		cb(keys)
	})
}

// Len synchronously reports the number of stored objects. Real
// IndexedDB has no such API; this exists for tests only.
func (s *AsyncStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
