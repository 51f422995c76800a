// Package ctl is the typed control plane over the DPMU: a P4Runtime-inspired
// operation model (one Op union type covering device lifecycle, virtual
// networking and table writes), structured error codes, atomic batched
// writes undone from their write sets, and a remote management surface (an HTTP
// service plus a client speaking the same script dialect as the REPL). The
// dpmu package stays the mechanism — translation, authorization, quotas —
// while ctl is the policy-free protocol layer every management path
// (hp4switch REPL, -commands scripts, hp4ctl, raw HTTP) funnels through.
package ctl

import (
	"errors"
	"fmt"

	"hyper4/internal/core/dpmu"
	pktio "hyper4/internal/runtime"
)

// Code classifies a control-plane failure, mirroring the gRPC/P4Runtime
// canonical codes the paper's ecosystem uses.
type Code string

const (
	CodeOK               Code = "OK"
	CodeInvalidArgument  Code = "INVALID_ARGUMENT"
	CodeNotFound         Code = "NOT_FOUND"
	CodeAlreadyExists    Code = "ALREADY_EXISTS"
	CodePermissionDenied Code = "PERMISSION_DENIED"
	CodeExhausted        Code = "RESOURCE_EXHAUSTED"
	CodeAborted          Code = "ABORTED"
	CodeInternal         Code = "INTERNAL"
)

// ExitCode maps a Code onto a stable process exit code, so scripts driving
// hp4ctl (or hp4switch -commands) can distinguish a typo from an
// authorization failure without parsing error text.
func (c Code) ExitCode() int {
	switch c {
	case CodeOK:
		return 0
	case CodeInvalidArgument:
		return 2
	case CodeNotFound:
		return 3
	case CodePermissionDenied:
		return 4
	case CodeExhausted:
		return 5
	case CodeAborted:
		return 6
	case CodeAlreadyExists:
		return 7
	}
	return 1
}

// Error is a structured control-plane failure: the code, the index of the
// failing op within its batch (-1 for single ops and parse errors), and a
// human-readable message. It serializes as the error half of every API
// response.
type Error struct {
	Code Code   `json:"code"`
	Op   int    `json:"op"`
	Msg  string `json:"msg"`
}

func (e *Error) Error() string {
	if e.Op >= 0 {
		return fmt.Sprintf("%s (op %d): %s", e.Code, e.Op, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Msg)
}

// ErrUnknown marks a line that is not a control-plane command at all; the
// hp4switch REPL uses it to fall through to raw switch-runtime commands.
var ErrUnknown = errors.New("unknown control command")

// CodeOf classifies any error: a *Error keeps its code, dpmu sentinel errors
// map to their canonical codes, parse failures are INVALID_ARGUMENT, and
// anything unclassified is INTERNAL.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Code
	}
	switch {
	case errors.Is(err, dpmu.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, dpmu.ErrPermission):
		return CodePermissionDenied
	case errors.Is(err, dpmu.ErrExhausted):
		return CodeExhausted
	case errors.Is(err, dpmu.ErrExists):
		return CodeAlreadyExists
	case errors.Is(err, dpmu.ErrInvalid), errors.Is(err, ErrUnknown):
		return CodeInvalidArgument
	// Packet I/O runtime sentinels (port ops).
	case errors.Is(err, pktio.ErrPortBusy):
		return CodeAlreadyExists
	case errors.Is(err, pktio.ErrNoPort):
		return CodeNotFound
	case errors.Is(err, pktio.ErrBadSpec):
		return CodeInvalidArgument
	case errors.Is(err, pktio.ErrClosed):
		return CodeAborted
	}
	return CodeInternal
}

// invalidf builds an INVALID_ARGUMENT error (the parse layer's currency).
func invalidf(format string, a ...any) *Error {
	return &Error{Code: CodeInvalidArgument, Op: -1, Msg: fmt.Sprintf(format, a...)}
}

// wrap converts any error into a *Error positioned at batch index op.
func wrap(err error, op int) *Error {
	if err == nil {
		return nil
	}
	var ce *Error
	if errors.As(err, &ce) {
		return &Error{Code: ce.Code, Op: op, Msg: ce.Msg}
	}
	return &Error{Code: CodeOf(err), Op: op, Msg: err.Error()}
}

// asError surfaces an error's *Error form, preserving its batch position.
func asError(err error) *Error {
	var ce *Error
	if errors.As(err, &ce) {
		return ce
	}
	return wrap(err, -1)
}
