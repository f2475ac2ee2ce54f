package main

import (
	"fmt"
	"time"

	"doppio/internal/browser"
	"doppio/internal/eventloop"
)

// opTimeout bounds one posted unit of work, so a wedged loop fails
// the run instead of hanging it.
const opTimeout = 60 * time.Second

// tab is a browser window whose event loop runs on its own goroutine
// until close. The benchmark's driver goroutine hands it work with do.
type tab struct {
	win *browser.Window
	ran chan error
}

// openTab starts win's loop, held open by a pending operation.
func openTab(win *browser.Window) *tab {
	t := &tab{win: win, ran: make(chan error, 1)}
	win.Loop.AddPending()
	go func() { t.ran <- win.Loop.Run() }()
	return t
}

// do runs fn as a macrotask on the tab's loop and waits until fn's
// work calls done (on any goroutine).
func (t *tab) do(label string, fn func(done func(error))) error {
	res := make(chan error, 1)
	t.win.Loop.InvokeExternal(label, func() {
		fn(func(err error) {
			select {
			case res <- err:
			default: // done called twice; the first result stands
			}
		})
	})
	select {
	case err := <-res:
		return err
	case err := <-t.ran:
		t.ran <- err
		return fmt.Errorf("%s: event loop stopped: %v", label, err)
	case <-time.After(opTimeout):
		return fmt.Errorf("%s: did not finish within %v", label, opTimeout)
	}
}

// close releases the loop and waits for it to drain and return.
func (t *tab) close() error {
	t.win.Loop.DonePending()
	select {
	case err := <-t.ran:
		return err
	case <-time.After(opTimeout):
		return fmt.Errorf("tab: event loop did not drain within %v", opTimeout)
	}
}

// loopStats reads the loop's counters from a macrotask, so idle time
// up to this moment is already counted.
func (t *tab) loopStats() (eventloop.Stats, error) {
	var st eventloop.Stats
	err := t.do("perfbench-read", func(done func(error)) {
		st = t.win.Loop.Stats()
		done(nil)
	})
	return st, err
}

// addLoop sums two stretches of loop work.
func addLoop(a, b eventloop.Stats) eventloop.Stats {
	a.TasksRun += b.TasksRun
	a.TimersFired += b.TimersFired
	a.Messages += b.Messages
	a.BusyTime += b.BusyTime
	a.IdleTime += b.IdleTime
	if b.LongestTask > a.LongestTask {
		a.LongestTask = b.LongestTask
	}
	return a
}

// loopDelta is the loop work between two Stats readings. LongestTask
// is a running maximum, so the later reading's value stands.
func loopDelta(a, b eventloop.Stats) eventloop.Stats {
	return eventloop.Stats{
		TasksRun:    b.TasksRun - a.TasksRun,
		TimersFired: b.TimersFired - a.TimersFired,
		Messages:    b.Messages - a.Messages,
		BusyTime:    b.BusyTime - a.BusyTime,
		IdleTime:    b.IdleTime - a.IdleTime,
		LongestTask: b.LongestTask,
	}
}
