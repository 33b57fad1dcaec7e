// Package nativeok holds the shape native.BoundedDo uses by design, which
// nodeterminism must accept in native/: a goroutine raced against a stop
// channel by a two-case select.
package nativeok

// Do runs f on its own goroutine and gives up when stop closes.
func Do(f func() int, stop <-chan struct{}) (int, bool) {
	ch := make(chan int, 1)
	go func() { ch <- f() }()
	select {
	case v := <-ch:
		return v, true
	case <-stop:
		return 0, false
	}
}
