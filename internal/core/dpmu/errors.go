package dpmu

import "errors"

// Sentinel errors classifying every DPMU failure. The control-plane layer
// (internal/core/ctl) maps them onto its P4Runtime-style error codes with
// errors.Is; keeping the sentinels here (rather than importing ctl) keeps the
// package graph acyclic: ctl builds on dpmu, never the reverse.
var (
	// ErrNotFound: the named virtual device, table, action, entry or
	// snapshot does not exist.
	ErrNotFound = errors.New("not found")
	// ErrPermission: the requester is not authorized for the device (§4.5).
	ErrPermission = errors.New("permission denied")
	// ErrInvalid: the operation is malformed — an entry the table does not
	// admit (sim.CheckEntry), an entry no parse path takes, or similar.
	ErrInvalid = errors.New("invalid argument")
	// ErrExhausted: the device's entry quota (memory isolation, §4.5) is
	// spent.
	ErrExhausted = errors.New("resource exhausted")
	// ErrExists: the name is already taken (duplicate Load).
	ErrExists = errors.New("already exists")
)
