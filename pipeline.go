package rethinkkv

import (
	"context"
	"fmt"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/core"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
)

// Report summarises cache-level effects of one generation pass.
type Report = core.Report

// Token is one streamed generation step: the emitted vocabulary id (ID)
// and its absolute sequence position (Pos, prompt length + offset). Both
// Pipeline.Generate and Server.Submit stream this type, so consumers are
// backend-agnostic.
type Token = sched.Token

// Pipeline runs real tiny-model generation under a compression method. A
// pipeline is reusable and safe for concurrent use: every Generate, Run or
// GenerateBatch call executes on a fresh method cache and a workspace of its
// own over the shared, immutable model.
type Pipeline struct {
	cfg    config
	model  *model.Model
	method compress.Method
}

// New builds a generation pipeline. Options: WithMethod, WithSeed,
// WithMaxNewTokens. Unknown method names return ErrUnknownMethod.
func New(opts ...Option) (*Pipeline, error) {
	cfg := buildConfig(opts)
	if cfg.maxNew <= 0 {
		return nil, fmt.Errorf("%w: max new tokens must be positive, got %d", ErrInvalidOption, cfg.maxNew)
	}
	method, err := resolveMethod(cfg.method)
	if err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg, model: model.New(model.Tiny(), cfg.seed), method: method}, nil
}

// Method returns the pipeline's compression method name.
func (p *Pipeline) Method() string { return p.method.Name }

// Generate prefills the prompt and streams up to WithMaxNewTokens greedily
// decoded tokens. The channel closes when generation completes or ctx is
// cancelled. Each call runs on a fresh cache, so a pipeline may generate any
// number of times. The channel is buffered to the full token budget, so the
// producer terminates even if the consumer abandons the stream early.
func (p *Pipeline) Generate(ctx context.Context, prompt []int) (<-chan Token, error) {
	s, err := p.session(prompt)
	if err != nil {
		return nil, err
	}
	ch := make(chan Token, p.cfg.maxNew)
	go func() {
		defer close(ch)
		for i := 0; i < p.cfg.maxNew; i++ {
			if ctx.Err() != nil {
				return
			}
			pos := s.Pos()
			tok := Token{ID: s.Next(), Pos: pos}
			select {
			case ch <- tok:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

// GenerateBatch decodes up to WithMaxNewTokens greedily sampled tokens for
// every prompt, running the decode streams in parallel goroutines. Each
// stream owns an isolated method cache and scratch workspace over the shared
// (immutable) model weights, so outputs are identical to calling Run on each
// prompt sequentially. Results and reports are index-aligned with prompts.
// On context cancellation the partial outputs decoded so far are returned
// alongside ctx.Err().
func (p *Pipeline) GenerateBatch(ctx context.Context, prompts [][]int) ([][]int, []Report, error) {
	if len(prompts) == 0 {
		return nil, nil, ErrEmptyPrompt
	}
	vocab := p.Vocab()
	for i, prompt := range prompts {
		if err := validatePrompt(prompt, vocab); err != nil {
			return nil, nil, fmt.Errorf("%w (prompt %d)", err, i)
		}
	}
	// Prefill one prompt at a time, checking ctx between prompts so a
	// cancelled batch does not pay the remaining prefill cost.
	sessions := make([]*core.Session, len(prompts))
	for i, prompt := range prompts {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("rethinkkv: %w", err)
		}
		s, err := p.session(prompt)
		if err != nil {
			return nil, nil, err
		}
		sessions[i] = s
	}
	outs, reports := core.DecodeSessions(ctx, sessions, p.cfg.maxNew)
	for i := range reports {
		reports[i].Method = p.method.Name
	}
	if err := ctx.Err(); err != nil {
		return outs, reports, fmt.Errorf("rethinkkv: %w", err)
	}
	return outs, reports, nil
}

// Run prefills the prompt, greedily decodes maxNew tokens, and reports the
// cache-level effects. Like Generate, it is re-invokable.
func (p *Pipeline) Run(prompt []int, maxNew int) ([]int, Report, error) {
	s, err := p.session(prompt)
	if err != nil {
		return nil, Report{}, err
	}
	out := s.Decode(maxNew)
	rep := s.Report()
	rep.Method = p.method.Name
	return out, rep, nil
}

// Vocab returns the tiny model's vocabulary size — the exclusive upper
// bound on prompt token ids.
func (p *Pipeline) Vocab() int { return p.model.Config().Vocab }

// validatePrompt checks a prompt against the shared facade contract: it
// must be non-empty and every token must be inside the model vocabulary.
// Pipeline and Server both gate on it.
func validatePrompt(prompt []int, vocab int) error {
	if len(prompt) == 0 {
		return ErrEmptyPrompt
	}
	for i, tok := range prompt {
		if tok < 0 || tok >= vocab {
			return fmt.Errorf("%w: token %d at position %d (vocab %d)", ErrInvalidToken, tok, i, vocab)
		}
	}
	return nil
}

// session starts one generation pass: the prompt prefilled on a fresh cache of
// the pipeline's method.
func (p *Pipeline) session(prompt []int) (*core.Session, error) {
	if err := validatePrompt(prompt, p.Vocab()); err != nil {
		return nil, err
	}
	s, err := core.NewSession(p.model, p.method.NewCache(p.model.CacheShape()), prompt)
	if err != nil {
		return nil, fmt.Errorf("rethinkkv: %w", err)
	}
	return s, nil
}
