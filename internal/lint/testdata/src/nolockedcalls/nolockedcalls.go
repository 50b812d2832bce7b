// Package nolockedcalls exercises the locks analyzer's blocking rules:
// channel sends, I/O, hook invocations, and transitive effects reached
// while a classed mutex is held.
package nolockedcalls

import (
	"net"
	"sync"
)

// Hook runs user code and must never be invoked under a lock.
//
//tcache:hook
type Hook func(key string)

type guarded struct {
	mu   sync.Mutex //tcache:lockclass g
	ch   chan int
	hook Hook
}

func sendLocked(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch <- 1 // want `potentially blocking channel send while holding lock class\(es\) g`
}

func dialLocked(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = net.Dial("tcp", "127.0.0.1:0") // want `net I/O \(net\.Dial\) while holding lock class\(es\) g`
}

func fireLocked(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook("k") // want `invoking //tcache:hook type Hook while holding lock class\(es\) g`
}

// doIO gives callsIOLocked a transitive effect to find.
func doIO() {
	_, _ = net.Dial("tcp", "127.0.0.1:0")
}

func callsIOLocked(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	doIO() // want `call to doIO may perform net I/O while holding lock class\(es\) g`
}
