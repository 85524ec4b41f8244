package rethinkkv

import (
	"errors"

	"rethinkkv/internal/fleet"
	"rethinkkv/internal/kvcache"
	"rethinkkv/internal/sched"
)

// Typed errors returned by the public constructors and registries. Wraps
// carry the offending name: test with errors.Is.
var (
	// ErrUnknownMethod reports a compression method name absent from
	// Methods().
	ErrUnknownMethod = errors.New("rethinkkv: unknown compression method")
	// ErrUnknownModel reports a model name absent from Models().
	ErrUnknownModel = errors.New("rethinkkv: unknown model")
	// ErrUnknownEngine reports an engine name absent from Engines().
	ErrUnknownEngine = errors.New("rethinkkv: unknown engine")
	// ErrUnknownHardware reports a hardware name absent from Hardware().
	ErrUnknownHardware = errors.New("rethinkkv: unknown hardware")
	// ErrUnknownRouter reports a routing policy absent from Routers().
	ErrUnknownRouter = errors.New("rethinkkv: unknown router policy")
	// ErrEmptyPrompt reports a Generate call with no prompt tokens.
	ErrEmptyPrompt = errors.New("rethinkkv: empty prompt")
	// ErrInvalidToken reports a prompt token outside the model's vocabulary.
	ErrInvalidToken = errors.New("rethinkkv: prompt token out of vocabulary range")
	// ErrInvalidOption reports an option value outside its valid range.
	ErrInvalidOption = errors.New("rethinkkv: invalid option value")
	// ErrEmptyCluster reports a cluster constructed with no GPUs.
	ErrEmptyCluster = errors.New("rethinkkv: cluster needs at least one GPU")
	// ErrUnknownPolicy reports a scheduling policy absent from
	// SchedPolicies().
	ErrUnknownPolicy = errors.New("rethinkkv: unknown scheduling policy")
	// ErrUnknownQuantMethod reports a KV quantization method name absent
	// from KVQuantMethods() (WithKVQuant).
	ErrUnknownQuantMethod = errors.New("rethinkkv: unknown KV quantization method")
	// ErrEmptyFleet reports a fleet constructed with no engines.
	ErrEmptyFleet = errors.New("rethinkkv: fleet needs at least one engine")
)

// The serving sentinels are the engines' own values, shared rather than
// translated: an error from Submit, Drain, Failed or a stream's final token
// is whatever the engine returned, so errors.Is against these names holds at
// every layer and no token crosses a goroutine only to have its error
// rewritten. Their messages therefore carry the engine's prefix ("sched:",
// "kvcache:", "fleet:"), not "rethinkkv:".
var (
	// ErrOutOfPages reports a request that cannot fit the server's KV page
	// budget (WithKVPages) even running alone — the paged engine's
	// out-of-memory condition.
	ErrOutOfPages = kvcache.ErrOutOfPages
	// ErrServerClosed reports a Submit or Drain against a closed Server,
	// or a Drain released because Close aborted in-flight requests.
	ErrServerClosed = sched.ErrClosed
	// ErrBadRoute reports a routing policy that returned an out-of-range
	// engine index on the real-engine path (Fleet.Submit or
	// Cluster.ServeTrace with WithRealEngine). The simulator's equivalent
	// misroute is reported per-run by ServeTrace itself; this sentinel is
	// the live path's fail-fast form.
	ErrBadRoute = fleet.ErrBadRoute
	// ErrOverloaded reports a Submit rejected because the bounded admission
	// queue (WithMaxQueue) is full — fail-fast back-pressure instead of
	// unbounded queue growth. The request was never admitted; retry later
	// or shed upstream.
	ErrOverloaded = sched.ErrOverloaded
	// ErrEngineFailed reports an engine whose scheduling loop panicked. A
	// standalone Server stays up but rejects new work and terminates live
	// streams with an error token carrying this sentinel; a Fleet
	// quarantines the engine, fails its in-flight requests over to healthy
	// replicas via bit-identical replay, and only surfaces this error when
	// no healthy engine can hold a request (or the whole fleet is down).
	ErrEngineFailed = sched.ErrEngineFailed
	// ErrDeadlineExceeded reports a request shed from the admission queue
	// because its TTFT deadline (ServeRequest.Deadline, or the
	// WithAdmissionTimeout default) passed before decode started: the
	// stream's final token carries this sentinel in Token.Err. Requests
	// that already streamed a token are never shed.
	ErrDeadlineExceeded = sched.ErrDeadlineExceeded
)
