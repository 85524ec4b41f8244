package rethinkkv

import (
	"fmt"
	"time"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
)

// Option configures the public constructors (New, NewSystem, NewCluster,
// NewEvaluator). Unknown names surface as typed errors (ErrUnknownMethod,
// ErrUnknownModel, ...) when the constructor resolves the configuration.
type Option func(*config)

// config is the resolved functional-option state shared by all facades.
type config struct {
	method       string
	model        string
	hardware     string
	engine       string
	seed         uint64
	tp           int
	batchCap     int
	maxNew       int
	contSteps    int
	maxBatch     int
	kvPages      int
	pageTokens   int
	prefillChunk int
	tokenBudget  int
	schedPol     string
	kvQuant      string
	sparseTopK   int
	realEngine   bool
	sharedPrefix []int
	routerName   string

	maxQueue         int
	admissionTimeout time.Duration
	faults           *FaultPlan
}

func defaultConfig() config {
	return config{
		method:       "fp16",
		model:        "llama-2-7b",
		hardware:     "a6000",
		engine:       "lmdeploy",
		seed:         1,
		tp:           1,
		batchCap:     64,
		maxNew:       32,
		contSteps:    16,
		maxBatch:     8,
		kvPages:      0,
		pageTokens:   16,
		prefillChunk: 32,
		schedPol:     SchedFCFS,
		kvQuant:      KVQuantFP32,
		routerName:   RouterBaseline,
	}
}

func buildConfig(opts []Option) config {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMethod selects the compression method by name (see Methods()).
// Default: "fp16".
func WithMethod(name string) Option { return func(c *config) { c.method = name } }

// WithModel selects by name (see Models()) the model shape the analytical
// cost model prices: System, the Cluster simulator and the routing
// predictors. Default: "llama-2-7b". Pipeline, Evaluator, Server, Fleet and
// the WithRealEngine replay always serve the tiny model (model.Tiny()),
// whatever this option names.
func WithModel(name string) Option { return func(c *config) { c.model = name } }

// WithHardware selects the accelerator by name (see Hardware()).
// Default: "a6000".
func WithHardware(name string) Option { return func(c *config) { c.hardware = name } }

// WithEngine selects the serving engine by name (see Engines()).
// Default: "lmdeploy".
func WithEngine(name string) Option { return func(c *config) { c.engine = name } }

// WithSeed fixes the random seed for model weights, traces, and length
// sampling. Default: 1.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithTP sets the tensor-parallel degree for the cost model. Default: 1.
func WithTP(tp int) Option { return func(c *config) { c.tp = tp } }

// WithBatchCap bounds the per-GPU batch size in cluster simulation.
// Default: 64.
func WithBatchCap(n int) Option { return func(c *config) { c.batchCap = n } }

// WithMaxNewTokens sets how many tokens Pipeline.Generate streams per call.
// Default: 32.
func WithMaxNewTokens(n int) Option { return func(c *config) { c.maxNew = n } }

// WithContSteps sets the greedy continuation length the accuracy evaluator
// compares between reference and compressed runs. Default: 16.
func WithContSteps(n int) Option { return func(c *config) { c.contSteps = n } }

// WithMaxBatch bounds how many requests the continuous-batching server
// decodes concurrently per iteration. Default: 8.
func WithMaxBatch(n int) Option { return func(c *config) { c.maxBatch = n } }

// WithKVPages sets the server's global KV page budget (per-layer pages
// shared by all live sequences). The scheduler admits a request only once
// the budget holds it and every running request to retirement, planned from
// their MaxNew (or Predicted) lengths; if a request outlives a too-short
// Predicted and the budget runs out, it preempts and later recomputes. 0
// (the default) means unbounded.
func WithKVPages(n int) Option { return func(c *config) { c.kvPages = n } }

// WithPageTokens sets the KV page size in tokens for the server's paged
// cache. Default: 16.
func WithPageTokens(n int) Option { return func(c *config) { c.pageTokens = n } }

// WithPrefillChunk sets how many prompt tokens the server prefills per
// scheduling iteration. Prompts longer than the chunk are prefilled
// incrementally, each chunk fused into the same weight pass as the running
// decode batch, so a long arriving prompt delays running streams by one
// chunk's step time instead of stalling them for its whole prefill.
// Output is bit-identical for every chunk size. Smaller chunks bound the
// running streams' inter-token gap tighter; larger chunks reach the long
// prompt's first token sooner. Default: 32.
func WithPrefillChunk(n int) Option { return func(c *config) { c.prefillChunk = n } }

// WithTokenBudget sets the shared per-iteration token budget of the server's
// Sarathi-style stall-free batching: each scheduling iteration packs prefill
// chunks from every admitted mid-prefill prompt (oldest first, each capped
// by WithPrefillChunk and its remaining prompt) into the same fused weight
// pass as the running decode batch, until decode lanes + chunk tokens
// reach n. k long prompts arriving together then prefill concurrently
// through shared weight-stationary passes instead of one-at-a-time, so
// their aggregate time-to-first-token stops degrading linearly in k, while
// running decode streams still never wait more than one budgeted pass.
// Output stays bit-identical per request for every budget. A useful budget
// is roughly maxBatch + k·prefillChunk for the burst width k it should
// absorb. Default: 0, which means maxBatch + prefillChunk — the oldest
// prompt always gets a full chunk and whatever room the decode lanes leave
// packs the next prompt's.
func WithTokenBudget(n int) Option { return func(c *config) { c.tokenBudget = n } }

// WithSchedPolicy selects the server's admission/preemption policy by name
// (see SchedPolicies()): SchedFCFS or SchedSJF. Default: SchedFCFS.
func WithSchedPolicy(name string) Option { return func(c *config) { c.schedPol = name } }

// WithKVQuant selects the live serving plane's KV page precision by name
// (see KVQuantMethods()): KVQuantFP32 (the default full-precision pages),
// KVQuantInt8, or KVQuantInt4. Quantized pages hold the same byte budget's
// worth of context in 3–8× more resident pages — WithKVPages stays
// denominated in fp32-page bytes and the engine scales it — so a server
// under page pressure admits and sustains more concurrent streams.
// Decode streams the codes through fused dequantize-on-read kernels (no
// fp32 copy of the context is ever materialised) and stays deterministic:
// preemption→recompute and chunked prefill reproduce streams bit-exactly.
// Outputs are not bit-identical to fp32 serving; measure the accuracy cost
// per method with NewEvaluator. Applies to NewServer, NewFleet, and
// Cluster.ServeTrace under WithRealEngine; the simulator and the offline
// compression methods (WithMethod) are unaffected.
func WithKVQuant(method string) Option { return func(c *config) { c.kvQuant = method } }

// WithSparseAttention enables Quest-style sparse decode attention on the
// live serving plane: the paged cache maintains per-page key min/max
// summaries, and every decode step scores them against the query and attends
// only the topK most critical pages per head (the newest page always
// included). Prefill stays dense — it is what builds the summaries. At topK
// at or above the resident page count the output is bit-identical to dense
// serving; below it, decode reads O(topK) pages instead of the whole context,
// trading a measurable accuracy cost (see NewEvaluator / EvalSparse) for
// long-context decode speed. Composes with WithKVQuant — summaries fold over
// dequantized codes, so the criticality bound covers exactly what the fused
// kernels stream. Serving stays deterministic: preemption recompute,
// prefix-cache hits, and cross-engine migration replay decode-produced
// tokens through the same sparse steps and reproduce streams bit-exactly.
// topK 0 (the default) disables sparsity. Applies to NewServer, NewFleet,
// and Cluster.ServeTrace under WithRealEngine.
func WithSparseAttention(topK int) Option { return func(c *config) { c.sparseTopK = topK } }

// WithSharedPrefix pre-warms the prefix cache with a prompt prefix (e.g. a
// system prompt): the server prefills it once at start and keeps its KV
// pages cached for good. The cache itself is always on — every engine keeps
// the pages its requests seal, by reference, while its KV budget has room,
// and a request prefills only the part of its prompt the cache does not
// hold — so this option only guarantees the prefix is there before the first
// request and is never evicted. Decode output is bit-identical to cold
// prefill; only recompute is saved. The slice is copied.
func WithSharedPrefix(tokens []int) Option {
	return func(c *config) { c.sharedPrefix = append([]int(nil), tokens...) }
}

// WithRealEngine makes Cluster.ServeTrace replay the trace through real
// continuous-batching engines (one per GPU, tiny-model decode over paged
// KV, wall-clock time) instead of the discrete-event cost-model simulator.
func WithRealEngine() Option { return func(c *config) { c.realEngine = true } }

// WithRouter selects the fleet's routing policy by name (see
// FleetRouters()): the paper's four Table 8 policies plus the live-only
// "kv-pressure". Default: RouterBaseline. Cluster.ServeTrace takes its
// router as an argument instead and ignores this option.
func WithRouter(name string) Option { return func(c *config) { c.routerName = name } }

// WithMaxQueue bounds the admission queue of each serving engine: a Submit
// finding n requests already queued (admitted-but-not-started) fails fast
// with ErrOverloaded instead of growing the backlog without limit — the
// caller sees back-pressure while its request is still cheap to retry
// elsewhere. 0 (the default) leaves the queue unbounded. Applies per
// engine: a fleet of k engines holds up to k×n queued requests.
func WithMaxQueue(n int) Option { return func(c *config) { c.maxQueue = n } }

// WithAdmissionTimeout sets the default TTFT deadline stamped on every
// request that does not carry its own ServeRequest.Deadline: a request
// still queued — no token streamed — that long after submission is shed,
// its stream ending with a token whose Err wraps ErrDeadlineExceeded,
// instead of burning KV pages on work that already blew its SLO. Requests
// that started streaming are never shed. 0 (the default) disables
// deadline shedding.
func WithAdmissionTimeout(d time.Duration) Option {
	return func(c *config) { c.admissionTimeout = d }
}

// FaultPlan schedules deterministic faults for WithFaults: every entry is
// keyed by engine index (0 for a standalone Server) and triggers on the
// engine's own event stream — its Nth scheduling iteration, its Nth Submit
// — so a chaos scenario replays identically across runs and machines.
type FaultPlan struct {
	// StepPanics maps engine index -> 1-based scheduling iteration at
	// which that engine's step loop panics, once. The recover boundary
	// turns the panic into a quarantined engine (ErrEngineFailed); a
	// fleet fails the engine's requests over to healthy replicas.
	StepPanics map[int]int
	// SubmitStorms maps engine index -> how many consecutive Submits that
	// engine rejects with ErrOutOfPages — transient capacity exhaustion,
	// as a loaded migration target reports under real page pressure.
	SubmitStorms map[int]int
	// StepDelays maps engine index -> extra latency added to each of its
	// scheduling iterations — the slow-replica shape that exercises
	// deadline shedding without killing anything.
	StepDelays map[int]time.Duration
}

// WithFaults installs a deterministic fault-injection plan on the serving
// engines (NewServer, NewFleet) — test scaffolding for exercising panic
// isolation, failover and deadline shedding at exact, replayable points in
// each engine's execution. The plan is copied. No faults are injected when
// the option is absent.
func WithFaults(plan FaultPlan) Option {
	return func(c *config) { c.faults = &plan }
}

// resolveKVQuant maps a KV quantization method name to its code width in
// bits (0 for full precision), with a typed error.
func resolveKVQuant(name string) (int, error) {
	switch name {
	case KVQuantFP32:
		return 0, nil
	case KVQuantInt8:
		return 8, nil
	case KVQuantInt4:
		return 4, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownQuantMethod, name)
}

// engineConfig validates the engine options and builds the scheduler
// configuration every real-engine facade serves with — NewServer, NewFleet
// (per engine) and Cluster.ServeTrace under WithRealEngine. Hooks, faults,
// the clock epoch and the admission-timeout deadline are the caller's to add.
func engineConfig(cfg config) (sched.Config, error) {
	switch {
	case cfg.maxNew <= 0:
		return sched.Config{}, fmt.Errorf("%w: max new tokens must be positive, got %d", ErrInvalidOption, cfg.maxNew)
	case cfg.maxBatch <= 0:
		return sched.Config{}, fmt.Errorf("%w: max batch must be positive, got %d", ErrInvalidOption, cfg.maxBatch)
	case cfg.pageTokens <= 0:
		return sched.Config{}, fmt.Errorf("%w: page tokens must be positive, got %d", ErrInvalidOption, cfg.pageTokens)
	case cfg.kvPages < 0:
		return sched.Config{}, fmt.Errorf("%w: negative KV page budget %d", ErrInvalidOption, cfg.kvPages)
	case cfg.prefillChunk <= 0:
		return sched.Config{}, fmt.Errorf("%w: prefill chunk must be positive, got %d", ErrInvalidOption, cfg.prefillChunk)
	case cfg.tokenBudget < 0:
		return sched.Config{}, fmt.Errorf("%w: negative token budget %d", ErrInvalidOption, cfg.tokenBudget)
	case cfg.sparseTopK < 0:
		return sched.Config{}, fmt.Errorf("%w: negative sparse attention topK %d", ErrInvalidOption, cfg.sparseTopK)
	case cfg.maxQueue < 0:
		return sched.Config{}, fmt.Errorf("%w: negative admission queue bound %d", ErrInvalidOption, cfg.maxQueue)
	case cfg.admissionTimeout < 0:
		return sched.Config{}, fmt.Errorf("%w: negative admission timeout %v", ErrInvalidOption, cfg.admissionTimeout)
	}
	if cfg.schedPol != SchedFCFS && cfg.schedPol != SchedSJF {
		return sched.Config{}, fmt.Errorf("%w: %q", ErrUnknownPolicy, cfg.schedPol)
	}
	quantBits, err := resolveKVQuant(cfg.kvQuant)
	if err != nil {
		return sched.Config{}, err
	}
	if len(cfg.sharedPrefix) > 0 {
		if err := validatePrompt(cfg.sharedPrefix, engineShape().Vocab); err != nil {
			return sched.Config{}, fmt.Errorf("%w: shared prefix: %w", ErrInvalidOption, err)
		}
	}
	return sched.Config{
		MaxBatch:     cfg.maxBatch,
		PageTokens:   cfg.pageTokens,
		KVPages:      cfg.kvPages,
		MaxNew:       cfg.maxNew,
		PrefillChunk: cfg.prefillChunk,
		TokenBudget:  cfg.tokenBudget,
		Policy:       cfg.schedPol,
		KVQuantBits:  quantBits,
		SharedPrefix: cfg.sharedPrefix,
		MaxQueue:     cfg.maxQueue,
	}, nil
}

// engineShape is the model shape the real engines serve. It is chosen here
// and nowhere else; the facades read vocabulary and context length back
// from the model engineModel builds.
func engineShape() model.Config { return model.Tiny() }

// engineModel builds the model the real engines serve: weights from the
// configured seed, Quest sparse decode at the configured page budget.
func engineModel(cfg config) *model.Model {
	m := model.New(engineShape(), cfg.seed)
	m.SetSparseTopK(cfg.sparseTopK)
	return m
}

// resolveMethod maps a method name to its registration, with a typed error.
func resolveMethod(name string) (compress.Method, error) {
	m, err := compress.Get(name)
	if err != nil {
		return compress.Method{}, fmt.Errorf("%w: %q", ErrUnknownMethod, name)
	}
	return m, nil
}

// resolveModel maps a model name to its shape descriptor, with a typed error.
func resolveModel(name string) (model.Config, error) {
	cfg, ok := model.ByName(name)
	if !ok {
		return model.Config{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return cfg, nil
}

// resolveEngine maps an engine name to its profile, with a typed error.
func resolveEngine(name string) (engine.Profile, error) {
	p, err := engine.ByName(name)
	if err != nil {
		return engine.Profile{}, fmt.Errorf("%w: %q", ErrUnknownEngine, name)
	}
	return p, nil
}

// resolveHardware maps a hardware name to its descriptor, with a typed error.
func resolveHardware(name string) (gpu.Hardware, error) {
	hw, ok := gpu.ByName(name)
	if !ok {
		return gpu.Hardware{}, fmt.Errorf("%w: %q", ErrUnknownHardware, name)
	}
	return hw, nil
}
