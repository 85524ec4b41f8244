package workload

import (
	"testing"

	"rethinkkv/internal/stats"
)

func TestShareGPTDeterministic(t *testing.T) {
	a := SampleShareGPT(DefaultShareGPT(100), 7)
	b := SampleShareGPT(DefaultShareGPT(100), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := SampleShareGPT(DefaultShareGPT(100), 8)
	same := 0
	for i := range a {
		if a[i].PromptLen == c[i].PromptLen {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds should differ")
	}
}

func TestShareGPTBounds(t *testing.T) {
	cfg := DefaultShareGPT(2000)
	reqs := SampleShareGPT(cfg, 1)
	if len(reqs) != 2000 {
		t.Fatalf("n = %d", len(reqs))
	}
	for _, r := range reqs {
		if r.PromptLen < 4 || r.PromptLen > cfg.MaxPrompt {
			t.Fatalf("prompt len %d out of bounds", r.PromptLen)
		}
		if r.RefLen < 1 || r.RefLen > cfg.MaxResponse {
			t.Fatalf("response len %d out of bounds", r.RefLen)
		}
	}
}

func TestShareGPTStatisticsPlausible(t *testing.T) {
	reqs := SampleShareGPT(DefaultShareGPT(5000), 2)
	var prompts, resps []float64
	for _, r := range reqs {
		prompts = append(prompts, float64(r.PromptLen))
		resps = append(resps, float64(r.RefLen))
	}
	pMed := stats.Percentile(prompts, 50)
	rMed := stats.Percentile(resps, 50)
	if pMed < 100 || pMed > 350 {
		t.Fatalf("prompt median %v outside ShareGPT-like band", pMed)
	}
	if rMed < 150 || rMed > 400 {
		t.Fatalf("response median %v outside ShareGPT-like band", rMed)
	}
	// Heavy tail: p99 well above median.
	if stats.Percentile(prompts, 99) < 4*pMed {
		t.Fatal("prompt distribution not heavy-tailed")
	}
}

func TestShareGPTArrivals(t *testing.T) {
	cfg := DefaultShareGPT(500)
	cfg.RPS = 10
	reqs := SampleShareGPT(cfg, 3)
	prev := 0.0
	for _, r := range reqs {
		if r.ArrivalTime < prev {
			t.Fatal("arrivals must be non-decreasing")
		}
		prev = r.ArrivalTime
	}
	// 500 requests at 10 rps ≈ 50 seconds.
	if prev < 30 || prev > 80 {
		t.Fatalf("trace duration %v implausible for 10 rps", prev)
	}
}

func TestLongBenchDeterministicAndComplete(t *testing.T) {
	cfg := DefaultLongBench(300, 512, 512)
	a := SampleLongBench(cfg, 11)
	b := SampleLongBench(cfg, 11)
	if len(a) != 300 {
		t.Fatalf("n = %d", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Task != b[i].Task || a[i].PromptLen != b[i].PromptLen {
			t.Fatal("not deterministic")
		}
	}
	seen := map[TaskType]int{}
	for _, s := range a {
		seen[s.Task]++
	}
	for _, task := range AllTasks() {
		if seen[task] == 0 {
			t.Fatalf("task %v never sampled in 300 draws", task)
		}
	}
}

func TestLongBenchSampleInvariants(t *testing.T) {
	for _, s := range SampleLongBench(DefaultLongBench(200, 512, 512), 4) {
		if len(s.Prompt) != s.PromptLen {
			t.Fatalf("sample %d: prompt len mismatch", s.ID)
		}
		if len(s.Critical) == 0 {
			t.Fatalf("sample %d: no critical spans", s.ID)
		}
		for _, sp := range s.Critical {
			if sp.Start < 0 || sp.End > s.PromptLen || sp.Len() <= 0 {
				t.Fatalf("sample %d: bad span %+v for prompt %d", s.ID, sp, s.PromptLen)
			}
			// Critical spans must carry content tokens (upper half vocab).
			for j := sp.Start; j < sp.End; j++ {
				if s.Prompt[j] < 256 {
					t.Fatalf("sample %d: span token %d not content-marked", s.ID, s.Prompt[j])
				}
			}
		}
		if s.Difficulty <= 0 || s.Difficulty > 1 {
			t.Fatalf("difficulty %v out of range", s.Difficulty)
		}
		if s.AnswerLen <= 0 {
			t.Fatal("answer length must be positive")
		}
		for _, tok := range s.Prompt {
			if tok < 0 || tok >= 512 {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
}

func TestTaskSpanShapes(t *testing.T) {
	samples := SampleLongBench(DefaultLongBench(600, 512, 512), 5)
	for _, s := range samples {
		switch s.Task {
		case Summarization:
			if len(s.Critical) < 6 {
				t.Fatalf("summarization needs dispersed spans, got %d", len(s.Critical))
			}
		case SingleDocQA, Synthetic:
			if len(s.Critical) != 1 {
				t.Fatalf("%v should have one needle, got %d", s.Task, len(s.Critical))
			}
		case Code:
			last := s.Critical[len(s.Critical)-1]
			if last.End != s.PromptLen {
				t.Fatalf("code completion span should end at prompt end: %+v vs %d", last, s.PromptLen)
			}
		}
	}
}

func TestTaskGrouping(t *testing.T) {
	if SingleDocQA.Group() != "QA" || MultiDocQA.Group() != "QA" {
		t.Fatal("QA grouping wrong")
	}
	if Summarization.Group() != "Summarization" || Code.Group() != "Code" {
		t.Fatal("grouping wrong")
	}
	groups := map[string]bool{}
	for _, task := range AllTasks() {
		groups[task.Group()] = true
	}
	if len(groups) != 5 {
		t.Fatalf("expected 5 figure-7 groups, got %d", len(groups))
	}
}

func TestTaskTypeString(t *testing.T) {
	if Summarization.String() != "summarization" || TaskType(99).String() == "" {
		t.Fatal("task names wrong")
	}
}
