package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// sweepSeconds is how long each rate of a sweep runs.
const sweepSeconds = 15

// runSweep is the ungated exploration the serving guide asks for: the
// workload's open-loop traffic at four fixed rates (1x, 2x, 3x and 4x its
// nominal rate, which sits well below the knee), latency at each, and the
// highest rate that meets the SLO without a growing backlog. A fresh engine
// serves each rate.
func runSweep(ctx context.Context, out io.Writer, w *Workload, seed uint64) error {
	if w.Rate <= 0 {
		return fmt.Errorf("-sweep needs an open-loop workload (chat_poisson, prefix_zipf); %s is closed-loop", w.Name)
	}
	fmt.Fprintf(out, "# sweep workload=%s seed=%d seconds=%d slo: ttft<=%gms tbot<=%gms, attained by >=90%% of requests sent\n",
		w.Name, seed, sweepSeconds, w.SLO.TTFTms, w.SLO.TBOTms)
	fmt.Fprintf(out, "%8s %6s %12s %12s %11s %11s %10s %s\n", "rate_rps", "sent", "ttft_p50_ms", "ttft_p90_ms", "itl_p50_ms", "slo_attain", "fail_frac", "backlog")
	maxRate := 0.0
	for _, scale := range []float64{1, 2, 3, 4} {
		timed, warm := w.Generate(seed, sweepSeconds, scale, ModelShape().Vocab)
		s, _, err := setup(ctx, w, warm, false, time.Now())
		if err != nil {
			return err
		}
		phase := (&load{eng: s.eng, t0: s.t0, open: true}).run(ctx, timed)
		s.eng.Close()
		cs := summarize(phase, phase.Start+int64(sweepSeconds*1e9), w.SLO, nil)
		// The backlog grows when the last third of the requests waited much
		// longer for their first token than the first third did.
		var first, last []float64
		for i, r := range phase.Records {
			if r.failed() {
				continue
			}
			switch {
			case i < len(phase.Records)/3:
				first = append(first, r.ttft())
			case i >= 2*len(phase.Records)/3:
				last = append(last, r.ttft())
			}
		}
		growing := mean(last) > 2*mean(first) && mean(last) > w.SLO.TTFTms/2
		attain := ratio(float64(cs.SLOMet), float64(cs.Measured))
		backlog := "steady"
		if growing {
			backlog = "growing"
		}
		rate := w.Rate * scale
		pc := countPhase(phase, nil)
		fmt.Fprintf(out, "%8.2f %6d %12.2f %12.2f %11.2f %11.3f %10.3f %s\n", rate, pc.Sent,
			percentile(cs.TTFT, 50), percentile(cs.TTFT, 90), percentile(cs.ITL, 50), attain, ratio(float64(pc.Failed), float64(pc.Sent)), backlog)
		if attain >= 0.9 && !growing {
			maxRate = rate
		}
	}
	fmt.Fprintf(out, "max_rate_rps %.2f\n", maxRate)
	return nil
}
