package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/minic"
	"doppio/internal/proc"
)

// The fleet-mix tenant programs. Each takes its amount of work as an
// argument, so one compiled program serves every seeded size.
const (
	fleetBurnC = `
int main() {
    char a[32];
    getarg(1, a, 32);
    int reps = atoi(a);
    int acc = 0;
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < 1000; i++) {
            acc = (acc * 31 + i) % 1000003;
        }
    }
    putint(acc);
    putchar('\n');
    return 0;
}`
	fleetBurnJava = `
public class FleetBurn {
    public static void main(String[] args) {
        int n = Integer.parseInt(args[0]);
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = (acc * 31 + i) % 1000003;
        }
        System.out.println("acc " + acc);
    }
}`
	fleetProducerC = `
int main() {
    char a[32];
    getarg(1, a, 32);
    int n = atoi(a);
    for (int i = 0; i < n; i++) {
        puts("ping\n");
    }
    return 0;
}`
	fleetConsumerJava = `
public class FleetCount {
    public static void main(String[] args) {
        int lines = 0;
        int c = System.in.read();
        while (c >= 0) {
            if (c == '\n') { lines = lines + 1; }
            c = System.in.read();
        }
        System.out.println(lines);
    }
}`
)

// fleetLoad is one round's work: k tenants, in equal thirds MiniC
// burn, JVM burn and MiniC-to-JVM pipe, run by a number of closed-loop
// load threads that each submit a tenant, wait for it, and take the next.
type fleetLoad struct {
	k       int
	clients int
}

// fleetSession is one fleet-mix set-up: the compiled tenant programs
// and a 2-shard supervisor whose shard loops are known for probing.
type fleetSession struct {
	sup      *fleet.Supervisor
	burn     *minic.Program
	producer *minic.Program
	burnJVM  map[string][]byte
	consumer map[string][]byte
	loops    []*eventloop.Loop

	tenants []*tenantRec
	refused int
}

// tenantRec is one tenant's timeline and result. The tenant's shard
// goroutine writes it before the tenant finishes; the driver reads it
// after the tenant's Done channel closes.
type tenantRec struct {
	kind, label string
	arg         int
	want        string

	submitted      time.Time
	submitDur      time.Duration
	refused        bool
	started, ended time.Time
	done           time.Time
	spawns         []time.Duration
	out            bytes.Buffer
	exit           int32
	core           core.Stats
	bytecodes      int64
	err            error
}

// runFleetMix: a 2-shard supervisor hosts a seeded batch of short
// tenants that two closed-loop load threads submit one at a time each;
// a round ends when the last tenant is Done.
func runFleetMix(c *runCtx) error {
	load := fleetLoad{k: 48, clients: 2}
	if c.opts.small {
		load = fleetLoad{k: 6, clients: 2}
	}
	s, err := setupN(c, 25, newFleetSession, func(s *fleetSession) { s.sup.Close() })
	if err != nil {
		return err
	}
	defer s.sup.Close()

	pr := c.newProber()
	round := func(i int) error {
		pr.setLoops(s.loops...)
		return s.round(c, load, rand.New(rand.NewSource(c.opts.seed*1_000_003+int64(i))))
	}
	if err := round(0); err != nil {
		return err
	}
	untracedLen, tracedLen := c.phaseLengths()
	s.tenants = nil
	ph, err := runPhase(untracedLen, 3, 1, pr, round)
	if err != nil {
		return err
	}
	var lat []time.Duration
	for _, t := range s.tenants {
		lat = append(lat, t.done.Sub(t.submitted))
	}
	c.layer["tenant_p50_ms"] = ms(percentile(lat, 0.50))
	c.layer["tenant_p99_ms"] = ms(percentile(lat, 0.99))
	c.recordUntraced(ph)
	if !c.opts.traced {
		return nil
	}

	s.tenants, s.refused = nil, 0
	snap0 := s.sup.Snapshot()
	loops0 := s.loopStats()
	tph, err := runPhase(tracedLen, 3, 1+len(ph.walls), pr, round)
	if err != nil {
		return err
	}
	snap1 := s.sup.Snapshot()
	loops1 := s.loopStats()
	c.recordTraced(tph)
	c.traceOverhead(ph, tph)
	n := len(tph.walls)
	c.recordLoop(loopDelta(loops0, loops1), n)
	var st core.Stats
	var bytecodes int64
	var submit, wait, run, spawn, pipe, mc []time.Duration
	for _, t := range s.tenants {
		addStats(&st, t.core)
		bytecodes += t.bytecodes
		submit = append(submit, t.submitDur)
		c.spans = append(c.spans,
			span{layer: "fleet.start_wait", start: t.submitted, end: t.started},
			span{layer: "fleet.run." + t.kind, start: t.started, end: t.ended})
		wait = append(wait, t.started.Sub(t.submitted))
		run = append(run, t.ended.Sub(t.started))
		spawn = append(spawn, t.spawns...)
		switch t.kind {
		case "pipe":
			pipe = append(pipe, t.ended.Sub(t.started))
		case "minic":
			mc = append(mc, t.ended.Sub(t.started))
		}
	}
	c.recordCore(st, n)
	c.layer["jvm.bytecodes"] = float64(bytecodes) / float64(n)
	if st.CPUTime > 0 {
		c.layer["jvm.bytecodes_per_s"] = float64(bytecodes) / st.CPUTime.Seconds()
	}
	c.layer["fleet.tenants"] = float64(len(s.tenants)) / float64(n)
	c.layer["fleet.submit_us"] = us(medianDur(submit))
	c.layer["fleet.start_wait_ms"] = ms(medianDur(wait))
	c.layer["fleet.run_ms"] = ms(medianDur(run))
	c.layer["fleet.evictions"] = float64(snap1.Evicted-snap0.Evicted) / float64(n)
	c.layer["fleet.refused"] = float64(s.refused) / float64(n)
	c.layer["proc.spawn_us"] = us(medianDur(spawn))
	c.layer["proc.pipeline_ms"] = ms(medianDur(pipe))
	c.layer["minic.run_ms"] = ms(medianDur(mc))
	return nil
}

// newFleetSession compiles the tenant programs, starts a supervisor
// with the default configuration on 2 shards, and learns both shard
// loops from two trivial tenants.
func newFleetSession() (*fleetSession, error) {
	s := &fleetSession{}
	var err error
	if s.burn, err = minic.CompileC(fleetBurnC); err != nil {
		return nil, err
	}
	if s.producer, err = minic.CompileC(fleetProducerC); err != nil {
		return nil, err
	}
	if s.burnJVM, err = rt.CompileWith(map[string]string{"FleetBurn.mj": fleetBurnJava}); err != nil {
		return nil, err
	}
	if s.consumer, err = rt.CompileWith(map[string]string{"FleetCount.mj": fleetConsumerJava}); err != nil {
		return nil, err
	}
	s.sup = fleet.NewSupervisor(fleet.Config{Shards: 2})
	var mu sync.Mutex
	byShard := map[int]*eventloop.Loop{}
	// Placement counts admits in flight, so two tenants submitted back
	// to back land on different shards.
	hello := fleet.Tenant{
		Label: "hello",
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			mu.Lock()
			byShard[env.Shard] = env.Win.Loop
			mu.Unlock()
			done(nil)
			return &fleet.Handle{}, nil
		},
	}
	for try := 0; try < 8 && len(byShard) < 2; try++ {
		var refs []*fleet.TenantRef
		for i := 0; i < 2; i++ {
			ref, err := s.sup.Submit(hello)
			if err != nil {
				s.sup.Close()
				return nil, err
			}
			refs = append(refs, ref)
		}
		for _, ref := range refs {
			<-ref.Done()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(byShard) < 2 {
		s.sup.Close()
		return nil, errors.New("could not place a tenant on each shard")
	}
	s.loops = []*eventloop.Loop{byShard[0], byShard[1]}
	return s, nil
}

func (s *fleetSession) loopStats() eventloop.Stats {
	var sum eventloop.Stats
	for _, l := range s.loops {
		sum = addLoop(sum, l.Stats())
	}
	return sum
}

// round runs the load's tenants in seeded order, the load threads
// taking the next one as theirs finish, waits for every one, and
// checks each exit code and output.
func (s *fleetSession) round(c *runCtx, l fleetLoad, rng *rand.Rand) error {
	kinds := []string{"minic", "jvm", "pipe"}
	recs := make([]*tenantRec, l.k)
	for j := range recs {
		if j%3 == 0 {
			rng.Shuffle(3, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		t := &tenantRec{kind: kinds[j%3], label: fmt.Sprintf("%s-%d", kinds[j%3], j)}
		switch t.kind {
		case "minic":
			t.arg = 5 + rng.Intn(11)
			t.want = fmt.Sprintf("%d\n", burnAcc(t.arg*1000, 1000))
		case "jvm":
			t.arg = 5_000 + rng.Intn(10_001)
			t.want = fmt.Sprintf("acc %d\n", burnAcc(t.arg, t.arg))
		case "pipe":
			t.arg = 5 + rng.Intn(11)
			t.want = fmt.Sprintf("%d\n", t.arg)
		}
		recs[j] = t
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < l.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(recs)); j = next.Add(1) - 1 {
				s.runTenant(recs[j])
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(opTimeout):
		return fmt.Errorf("fleet-mix: tenants did not finish within %v", opTimeout)
	}
	for _, t := range recs {
		got := t.out.String()
		c.check(t.err == nil && t.exit == 0 && got == t.want,
			"fleet-mix %s(%d): exit %d, err %v, printed %q, want %q", t.label, t.arg, t.exit, t.err, got, t.want)
		if t.refused {
			s.refused++
		}
		if t.err == nil {
			s.tenants = append(s.tenants, t)
		}
	}
	return nil
}

// runTenant submits tenant t and waits until it is Done. A wedged
// tenant is left to the round's timeout.
func (s *fleetSession) runTenant(t *tenantRec) {
	t.submitted = time.Now()
	ref, err := s.sup.Submit(fleet.Tenant{Label: t.label, Start: s.startFunc(t)})
	t.submitDur = time.Since(t.submitted)
	if err != nil {
		t.refused, t.err = true, err
		return
	}
	<-ref.Done()
	t.done = time.Now()
	if t.err == nil {
		t.err = ref.Err()
	}
}

// startFunc builds tenant t's StartFunc, which runs on its shard loop
// and records the tenant's start, end, exit code and counters.
func (s *fleetSession) startFunc(t *tenantRec) fleet.StartFunc {
	return func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
		t.started = time.Now()
		finish := func(exit int32, err error, rt *core.Runtime) {
			t.ended = time.Now()
			t.exit = exit
			if rt != nil {
				t.core = rt.Stats()
			}
			done(err)
		}
		switch t.kind {
		case "minic":
			fs := env.NewFS(env.Root)
			vm, err := minic.NewVM(env.Win, s.burn, minic.VMOptions{
				Stdout: &t.out,
				FS:     fs,
				Args:   []string{"burn", fmt.Sprint(t.arg)},
			})
			if err != nil {
				return nil, err
			}
			vm.Start(func(exit int32, err error) { finish(exit, err, vm.Runtime()) })
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(), FS: fs, Kill: vm.Kill}, nil
		case "jvm":
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Stdout:           &t.out,
				Provider:         jvm.MapProvider(s.burnJVM),
				DisableEngineTax: true,
			})
			vm.StartMain("FleetBurn", []string{fmt.Sprint(t.arg)}, func(err error) {
				t.bytecodes = vm.Instructions
				finish(vm.ExitCode(), err, vm.Runtime())
			})
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(), Kill: func() { vm.Exit(137) }}, nil
		default:
			return s.startPipe(t, env, finish)
		}
	}
}

// startPipe runs a MiniC producer piped into a JVM consumer under a
// per-tenant process kernel; the tenant ends when both have exited.
func (s *fleetSession) startPipe(t *tenantRec, env *fleet.Env, finish func(int32, error, *core.Runtime)) (*fleet.Handle, error) {
	k := proc.NewKernel(env.Win, env.Root)
	pipe := k.NewPipe(512)
	t0 := time.Now()
	prod, err := k.SpawnMinic(s.producer, proc.SpawnSpec{
		Name:   t.label + "/producer",
		Args:   []string{fmt.Sprint(t.arg)},
		Stdout: &proc.PipeWriter{P: pipe},
	})
	t.spawns = append(t.spawns, time.Since(t0))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	cons, err := k.SpawnJVM("FleetCount", s.consumer, proc.SpawnSpec{
		Name:   t.label + "/consumer",
		Stdin:  &proc.PipeReader{P: pipe},
		Stdout: &proc.WriterStream{W: &t.out},
	})
	t.spawns = append(t.spawns, time.Since(t0))
	if err != nil {
		k.Kill(prod.PID, proc.SIGKILL)
		return nil, err
	}
	remaining := 2
	var exit int32
	var firstErr error
	var st core.Stats
	reap := func(p *proc.Process) {
		k.Waitpid(nil, p.PID).Then(func(v interface{}, err error) {
			addStats(&st, p.Runtime().Stats())
			if code, ok := v.(int32); ok && code != 0 && exit == 0 {
				exit = code
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if remaining--; remaining == 0 {
				t.core = st
				finish(exit, firstErr, nil)
			}
		})
	}
	reap(prod)
	reap(cons)
	return &fleet.Handle{Runtime: cons.Runtime(), FS: cons.FS, Kill: func() {
		k.Kill(prod.PID, proc.SIGKILL)
		k.Kill(cons.PID, proc.SIGKILL)
	}}, nil
}

// burnAcc is what the burn tenants print: n steps of the recurrence,
// restarting the inner index every inner steps.
func burnAcc(n, inner int) int {
	acc := 0
	for i := 0; i < n; i++ {
		acc = (acc*31 + i%inner) % 1000003
	}
	return acc
}
