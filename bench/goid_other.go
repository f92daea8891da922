//go:build !amd64

package main

import "runtime"

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Formatting the stack costs microseconds,
// which a traced run reports as tracing overhead.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
