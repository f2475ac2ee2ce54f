package main

import (
	"sync"
	"time"

	"doppio/internal/eventloop"
)

// probeEvery is how often the prober posts a probe macrotask to each
// loop: often enough that a 10 s phase yields thousands of samples
// (so the p99 has dozens beyond it), rarely enough that probes stay a
// negligible share of loop work.
const probeEvery = 2 * time.Millisecond

// prober measures responsiveness the way a page user feels it: it
// posts a probe macrotask to each target loop with InvokeExternal and
// records the delay until the loop runs it.
type prober struct {
	mu     sync.Mutex
	loops  []*eventloop.Loop
	delays []time.Duration

	stopCh chan struct{}
	done   chan struct{}
}

// newProber returns the run's prober. Only a traced run reports probe
// delays, so an untraced run gets none (nil) and carries no probe load.
func (c *runCtx) newProber() *prober {
	if !c.opts.traced {
		return nil
	}
	return &prober{}
}

// setLoops replaces the loops being probed (a tab-cpu round opens a
// new tab). It does nothing on a nil prober.
func (p *prober) setLoops(loops ...*eventloop.Loop) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.loops = append(p.loops[:0:0], loops...)
	p.mu.Unlock()
}

func (p *prober) start() {
	p.mu.Lock()
	p.delays = nil
	p.mu.Unlock()
	p.stopCh = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
}

// stop ends probing and returns the delays recorded since start.
// Probes still queued on a loop are dropped.
func (p *prober) stop() []time.Duration {
	close(p.stopCh)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.delays
	p.delays = nil
	p.loops = nil
	return out
}

func (p *prober) loop() {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-tick.C:
		}
		p.mu.Lock()
		loops := p.loops
		p.mu.Unlock()
		for _, l := range loops {
			posted := time.Now()
			l.InvokeExternal("perfbench-probe", func() {
				d := time.Since(posted)
				p.mu.Lock()
				if p.loops != nil {
					p.delays = append(p.delays, d)
				}
				p.mu.Unlock()
			})
		}
	}
}
