// Command fanin is the benchmark's instrumented-program workload: 16
// producers each fill their own row of cells and send the cell indexes
// on one buffered channel, main waits for them on a sync.WaitGroup,
// closes the channel, and then ranges over it summing the cells. Every
// cross-goroutine access is ordered by the WaitGroup or the channel,
// so the monitored run must report no race.
//
// The channel holds every item, so producers never block and the
// consumer runs only after Wait: a consumer spawned before Wait would
// leave Wait waiting out the monitor's join grace on a child that
// cannot finish yet.
//
// Usage: fanin <seed> <items-per-producer>
package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
)

const producers = 16

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: fanin <seed> <items-per-producer>")
		os.Exit(2)
	}
	seed, err := strconv.ParseUint(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fanin: seed:", err)
		os.Exit(2)
	}
	items, err := strconv.Atoi(os.Args[2])
	if err != nil || items < 1 {
		fmt.Fprintln(os.Stderr, "fanin: items-per-producer must be a positive integer")
		os.Exit(2)
	}
	cells := make([]uint64, producers*items)
	ch := make(chan int, producers*items)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := seed ^ uint64(p+1)*0x9e3779b97f4a7c15
			for i := 0; i < items; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				cells[p*items+i] = x >> 32
				ch <- p*items + i
			}
		}()
	}
	wg.Wait()
	close(ch)
	var sum uint64
	for k := range ch {
		sum += cells[k]
	}
	fmt.Println(sum)
}
