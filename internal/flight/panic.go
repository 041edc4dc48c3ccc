package flight

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at a worker or job boundary, converted
// into an ordinary error so one failing task cannot take down the pool,
// the daemon, or sibling jobs. The stack is captured at recovery time for
// the server log; transport layers must keep it off the wire and surface
// only an opaque incident ID.
type PanicError struct {
	// Job identifies the failing unit of work (task label, job key, …).
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in job %q: %v", e.Job, e.Value)
}

// Recovered wraps a recovered panic value into a *PanicError, capturing
// the current goroutine's stack. Call it from a deferred recover handler:
//
//	defer func() {
//		if v := recover(); v != nil {
//			err = Recovered(job, v)
//		}
//	}()
func Recovered(job string, v any) *PanicError {
	return &PanicError{Job: job, Value: v, Stack: debug.Stack()}
}
