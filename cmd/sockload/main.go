// sockload soaks the websockify gateway: N logical echo connections,
// once as plain one-stream WebSockets and once multiplexed onto a few
// sessions, plus a shed phase that forces admission control to refuse
// and then re-admit streams. Reports nearest-rank p50/p95/p99/p999 per
// arm into BENCH_sock.json.
//
//	go run ./cmd/sockload                       # full 1k/5k/10k sweep
//	go run -race ./cmd/sockload -n 500 -check   # the CI smoke gate
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"doppio/internal/bench"
)

func main() {
	conns := flag.String("conns", "1000,5000,10000", "comma-separated sweep of connection counts")
	n := flag.Int("n", 0, "single connection count (overrides -conns)")
	streams := flag.Int("streams", 100, "mux streams per WebSocket session")
	msgs := flag.Int("msgs", 4, "echo round trips per stream")
	size := flag.Int("size", 256, "echo message bytes")
	window := flag.Int("window", 0, "per-stream credit window bytes (0 = 64KiB)")
	shedDepth := flag.Int("shed-depth", 8, "shed phase queue-depth threshold")
	transport := flag.String("transport", "mem", "byte transport: mem or tcp")
	check := flag.Bool("check", false, "verify every echoed byte and gate on zero loss + nonzero shed")
	out := flag.String("o", "BENCH_sock.json", "report path (empty = skip)")
	flag.Parse()

	p := bench.SockParams{
		StreamsPerConn: *streams,
		Msgs:           *msgs,
		Size:           *size,
		Window:         *window,
		ShedDepth:      *shedDepth,
		Transport:      *transport,
		Check:          *check,
	}
	if *n > 0 {
		p.Conns = []int{*n}
	} else {
		for _, s := range strings.Split(*conns, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "sockload: bad -conns entry %q\n", s)
				os.Exit(2)
			}
			p.Conns = append(p.Conns, v)
		}
	}

	res, err := bench.RunSockLoad(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sockload:", err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatSock(res))
	if *out != "" {
		if err := bench.WriteReport(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "sockload: write report:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
	if *check {
		// RunSockLoad already failed on any lost frame or a flat shed
		// counter; reaching here means every gate held.
		fmt.Println("sockload check: ok")
	}
}
