package trace

import (
	"errors"
	"fmt"
)

// ValidationError describes a well-formedness violation in a trace.
type ValidationError struct {
	CPU   int
	Index int // event index within the CPU's trace
	Msg   string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("trace: cpu %d event %d: %s", e.CPU, e.Index, e.Msg)
}

// Validate checks that every per-CPU trace is well formed:
//
//   - every event kind is defined;
//   - unlocks match a lock currently held by the same CPU, and a CPU never
//     acquires a lock it already holds (self-deadlock under any sane lock);
//   - all locks are released by the end of the trace;
//   - if any CPU joins a barrier id, every CPU joins it the same number of
//     times (the simulated machine's barriers involve all processors, so
//     uneven join counts deadlock);
//   - a lock id is always associated with the same lock-word address.
//
// A zero-length burst (Exec(0)) is allowed: every run loop rounds it up to
// the next cycle. An End event ends its CPU's trace: every Source stops
// there, so the events stored after it are never consumed and are not
// checked.
//
// It reads the provided event slices without consuming them. It returns all
// violations found, joined, or nil.
func Validate(cpus [][]Event) error {
	return validate(BufferSet("", cpus).Sources)
}

// validate applies Validate's rules to sources, walking them one CPU at a
// time. It consumes the sources.
func validate(sources []Source) error {
	var errs []error
	lockAddr := map[uint32]uint32{}    // lock id → address
	barrierJoins := map[uint32][]int{} // barrier id → joins per cpu index
	for cpu, src := range sources {
		held := map[uint32]int{} // lock id → hold depth (should stay ≤1)
		i := 0
		for ; ; i++ {
			ev, ok := src.Next()
			if !ok || ev.Kind == KindEnd {
				break
			}
			switch {
			case !ev.Kind.Valid():
				errs = append(errs, &ValidationError{cpu, i, fmt.Sprintf("invalid kind %d", ev.Kind)})
			case ev.Kind == KindLock:
				if held[ev.Arg] > 0 {
					errs = append(errs, &ValidationError{cpu, i, fmt.Sprintf("lock %d acquired while already held (self-deadlock)", ev.Arg)})
				}
				held[ev.Arg]++
				if prev, ok := lockAddr[ev.Arg]; ok && prev != ev.Addr {
					errs = append(errs, &ValidationError{cpu, i, fmt.Sprintf("lock %d address changed 0x%x → 0x%x", ev.Arg, prev, ev.Addr)})
				} else {
					lockAddr[ev.Arg] = ev.Addr
				}
			case ev.Kind == KindUnlock:
				if held[ev.Arg] == 0 {
					errs = append(errs, &ValidationError{cpu, i, fmt.Sprintf("unlock of lock %d which is not held", ev.Arg)})
				} else {
					held[ev.Arg]--
				}
			case ev.Kind == KindBarrier:
				for len(barrierJoins[ev.Arg]) < len(sources) {
					barrierJoins[ev.Arg] = append(barrierJoins[ev.Arg], 0)
				}
				barrierJoins[ev.Arg][cpu]++
			}
		}
		for id, depth := range held {
			if depth > 0 {
				errs = append(errs, &ValidationError{cpu, i, fmt.Sprintf("lock %d still held at end of trace", id)})
			}
		}
	}
	for id, joins := range barrierJoins {
		want := joins[0]
		for cpu := 1; cpu < len(joins); cpu++ {
			if joins[cpu] != want {
				errs = append(errs, &ValidationError{cpu, 0, fmt.Sprintf("barrier %d joined %d times, cpu 0 joined %d times (machine would deadlock)", id, joins[cpu], want)})
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.Join(errs...)
}
