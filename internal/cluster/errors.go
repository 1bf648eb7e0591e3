package cluster

// errors.go is the error taxonomy of the execution substrate: one place that
// classifies an error chain into retry-relevant classes, so callers (the
// cluster's own retry loop, the service runtime's campaign-level retry, CLI
// reporting) never sniff IsInjectedFailure and context sentinels ad hoc.

import (
	"context"
	"errors"
	"fmt"
)

// ErrTaskPanicked marks a task, or a service's campaign run, that panicked.
// The panic is recovered at that boundary into an error wrapping this one,
// and Classify treats it as permanent: a defect panics again on every retry.
var ErrTaskPanicked = errors.New("cluster: task panicked")

// Recovered turns a value returned by recover into an error wrapping
// ErrTaskPanicked; the message carries the panic value.
func Recovered(v any) error { return fmt.Errorf("%w: %v", ErrTaskPanicked, v) }

// Class is the retry classification of an error.
type Class int

// The classes, from "nothing to classify" to "retrying cannot help".
const (
	// ClassNone is the classification of a nil error.
	ClassNone Class = iota
	// ClassTransient marks infrastructure failures that a retry can plausibly
	// outlive: injected task failures and anything wrapping them.
	ClassTransient
	// ClassCanceled marks context cancellation and deadline expiry: the caller
	// gave up or ran out of time. Retrying is pointless but the work itself
	// was not defective.
	ClassCanceled
	// ClassPermanent marks deterministic errors — bad plans, unknown columns,
	// invalid campaigns, recovered panics — that will fail identically on
	// every attempt.
	ClassPermanent
)

// String names the class for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassCanceled:
		return "canceled"
	case ClassPermanent:
		return "permanent"
	default:
		return "unknown"
	}
}

// Classify walks err's chain and returns its retry class. An injected failure
// anywhere in the chain wins over cancellation: a job that exhausted its task
// retry budget on injected failures is reported through a context-cancelling
// job abort, and the actionable fact is the transient root cause, not the
// bystander cancellation.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, errInjected):
		return ClassTransient
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	default:
		return ClassPermanent
	}
}

// Transient reports whether err is retryable (an injected infrastructure
// failure somewhere in its chain).
func Transient(err error) bool { return Classify(err) == ClassTransient }

// Permanent reports whether err is deterministic: neither transient nor a
// cancellation, so every retry would fail the same way.
func Permanent(err error) bool { return Classify(err) == ClassPermanent }

// Canceled reports whether err is a context cancellation or deadline expiry.
func Canceled(err error) bool { return Classify(err) == ClassCanceled }
