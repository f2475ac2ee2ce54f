package sockets

// Per-stream flow control is credit-based, the scheme the mux frames
// carry in their arg field (§15 of DESIGN.md):
//
//   - At stream open, SYN/SYNACK advertise each side's receive window:
//     the number of payload bytes the peer may have in flight.
//   - A sender spends credit when it transmits a byte.
//   - A receiver earns the sender new credit by draining its receive
//     buffer: CREDIT frames carry the delta, batched until a quarter
//     of the window has been drained so a byte-at-a-time consumer does
//     not generate a credit frame per byte.
//
// A writer that exhausts the window parks (its Write completion stays
// pending) until credit arrives — the "zero-window writer blocks,
// credit resumes" behavior the equivalence tests pin down. The gateway
// sheds load by withholding credit (pausing) or refusing streams
// (RST), both expressed in this same currency.

// sendWindow is the sender half: the credit balance for one stream
// direction. Callers hold the owning Mux's lock.
type sendWindow struct {
	avail int // bytes of credit not yet spent
}

// grant adds peer-issued credit.
func (w *sendWindow) grant(n int) { w.avail += n }

// take spends up to n bytes of credit, returning how many were
// actually available; 0 means the window is closed and the writer
// must park.
func (w *sendWindow) take(n int) int {
	if n > w.avail {
		n = w.avail
	}
	w.avail -= n
	return n
}

// recvWindow is the receiver half: it remembers the advertised window
// and accumulates drained bytes until a credit grant is worth sending.
// Callers hold the owning Mux's lock.
type recvWindow struct {
	window  int // bytes advertised to the peer at open
	pending int // bytes drained by the consumer, not yet granted back
	paused  bool
}

// creditThreshold is the fraction of the window that must drain before
// a CREDIT frame is emitted: window/4 batches grants without letting
// the sender's view of the window go stale enough to stall it.
func (w *recvWindow) creditThreshold() int {
	t := w.window / 4
	if t < 1 {
		t = 1
	}
	return t
}

// drained records n consumed bytes and returns the credit grant to
// transmit now — 0 when the grant is still batching or the stream is
// paused for shedding (a paused stream keeps accumulating; resume
// releases the whole balance).
func (w *recvWindow) drained(n int) int {
	w.pending += n
	if w.paused || w.pending < w.creditThreshold() {
		return 0
	}
	g := w.pending
	w.pending = 0
	return g
}

// pause withholds future credit grants; the sender runs out of window
// and stalls, which is how the gateway applies backpressure to a
// stream whose tenant has fallen behind.
func (w *recvWindow) pause() { w.paused = true }

// resume lifts a pause and returns any credit that accumulated while
// paused (0 when nothing is owed).
func (w *recvWindow) resume() int {
	w.paused = false
	g := w.pending
	if g > 0 && g >= w.creditThreshold() {
		w.pending = 0
		return g
	}
	return 0
}
