package main

// getg returns the address of the calling goroutine's runtime descriptor.
// It identifies the goroutine for as long as it runs; a descriptor reused
// after its goroutine exits names a later, non-overlapping lane of spans.
func getg() uintptr

func goid() uint64 { return uint64(getg()) }
