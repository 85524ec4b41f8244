// Package rethinkkv is a pure-Go reproduction of "Rethinking Key-Value
// Cache Compression Techniques for Large Language Model Serving"
// (MLSys 2025): full implementations of the KV cache compression methods
// the paper evaluates (KIVI, GEAR, H2O, StreamingLLM, SnapKV), a
// runnable tiny transformer they operate on, an analytical GPU cost model
// of the serving engines they were measured under (TRL, TRL+FlashAttention,
// LMDeploy), and runners that regenerate every table and figure in the
// paper's evaluation. See README.md and DESIGN.md.
//
// The package is the public facade over the internal layers. Everything is
// constructed with functional options and selected by name:
//
//	p, err := rethinkkv.New(rethinkkv.WithMethod("kivi-4"), rethinkkv.WithSeed(42))
//	tokens, err := p.Generate(ctx, prompt) // streaming, cancellable, re-invokable
//
//	sys, err := rethinkkv.NewSystem(rethinkkv.WithModel("llama-2-7b"),
//		rethinkkv.WithHardware("a6000"), rethinkkv.WithEngine("lmdeploy"),
//		rethinkkv.WithMethod("stream-512"), rethinkkv.WithTP(2))
//	thr := sys.DecodeThroughput(8, 4096)
//
//	c, err := rethinkkv.NewCluster([]string{"fp16", "stream-512", "stream-512", "stream-512"})
//	r, err := c.Router("w/both")
//	outcomes, err := c.ServeTrace(rethinkkv.ShareGPTTrace(1000, 10, 1), r)
//
//	srv, err := rethinkkv.NewServer(rethinkkv.WithMaxBatch(8), rethinkkv.WithKVPages(256))
//	stream, err := srv.Submit(ctx, rethinkkv.ServeRequest{Prompt: prompt}) // continuous batching
//
// Registries (Methods, Engines, Hardware, Models, Routers, SchedPolicies)
// list the valid names; unknown names surface as typed errors
// (ErrUnknownMethod, ...).
package rethinkkv
