// Package par provides panic capture for work run on other
// goroutines: a panic is recovered with its stack so that it can cross
// goroutine boundaries and be reported by the goroutine that waits.
package par

import (
	"fmt"
	"runtime"
)

// PanicError wraps a recovered panic value together with the stack of
// the panicking goroutine, so a panic on a worker can cross goroutine
// boundaries without losing its origin.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", p.Value, p.Stack)
}

// Recover runs fn and converts a panic into a *PanicError. A nil
// return means fn completed normally. runtime.Goexit is not recovered.
func Recover(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: v, Stack: buf}
		}
	}()
	fn()
	return nil
}

// Pool is an empty placeholder, kept only for the frozen bench/
// replica (ROADMAP item 6), which passes a nil *Pool to
// LinkModel.BuildInto and lm.Selector.UpdateTableIntoPar.
type Pool struct{}
